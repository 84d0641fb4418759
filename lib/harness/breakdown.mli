(** Latency-attribution profiles: run one Table-3-style cell with
    observability on and read back where its virtual time went, by cause
    (the {!Asym_obs.Attr} taxonomy) and by shared resource (queue wait vs
    service, from the timelines). Behind `bench breakdown` and
    `asymnvm profile`. *)

type cell = { kind : Asym_structs.Catalogue.kind; config : string; res : Runner.result }
(** The cell's attribution, round trips and resources are [res]'s. *)

val run_cell :
  ?put_ratio:float -> ?mix:Runner.mix ->
  rig:Runner.rig -> cfg:Asym_core.Client.config -> preload:int -> ops:int ->
  Asym_structs.Catalogue.kind -> cell

val attr_total : cell -> int

val table : cell list -> Report.t
(** us/op, round-trips/op, and per-cause share columns; footnotes the
    conservation arithmetic for the first cell. *)

val resource_table : cell list -> Report.t
(** Queue-wait vs service time per NIC/CPU/lock timeline. *)

val checks : cell list -> Bench_json.check list
(** Conservation plus the two headline expectations: naive BPT dominated
    by [rdma_rtt]; RCB shifting the majority onto
    [local_compute]+[nvm_media]. *)

val default_cells : ?preload:int -> ?ops:int -> unit -> cell list
(** BPT across all four configs, plus HashTable / Queue / MV-BPT
    contrasts — the cells EXPERIMENTS.md discusses. *)
