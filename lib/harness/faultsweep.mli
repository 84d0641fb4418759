(** `bench faultsweep`: throughput, retry counts, and a read-back
    consistency check vs per-verb drop rate, driving the
    {!Asym_rdma.Verbs.Fault} transient-loss model through the full
    client retry stack. Loss schedules are seeded, so retry counts
    reproduce run-to-run. *)

type cell = {
  kind : Asym_structs.Catalogue.kind;
  config : string;
  drop : float;  (** per-verb loss probability of this cell *)
  kops : float;
  retries : int;  (** verbs re-posted after a timeout *)
  reconnects : int;  (** degraded-reconnect cycles *)
  timeouts : int;  (** verbs lost by injection *)
  delays : int;  (** delivered verbs that ate an injected delay *)
  bad_reads : int;  (** read-back mismatches — any nonzero is a failure *)
}

val default_cells : ?preload:int -> ?ops:int -> unit -> cell list
(** B+-tree puts under RCB and Naive, one cell per drop rate: 0 (faults
    off) through 0.1. *)

val table : cell list -> Report.t

val checks : cell list -> Bench_json.check list
(** Verdicts: zero read-back mismatches at every drop rate, throughput
    degrades monotonically (5% slack), and retries rise from exactly
    zero (faults off) to nonzero at the top drop rate. *)
