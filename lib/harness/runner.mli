(** Shared machinery for the experiment harness.

    Builds rigs (a back-end plus optional mirrors), attaches
    {!Asym_structs.Catalogue} structures with the harness's parameters on
    both architectures, and runs the standard preload → warm-up → measure
    cycle that every table/figure cell uses. Throughput is virtual-time
    throughput: operations divided by the simulated nanoseconds they
    spanned. *)

val attach :
  ?shared:bool ->
  Asym_structs.Catalogue.kind ->
  Asym_core.Client.t ->
  name:string ->
  Asym_structs.Catalogue.instance
(** Attach on the AsymNVM front-end with the evaluation's locking
    discipline (ordered index structures take the writer lock;
    queue/stack/hash run single-writer; the MV trees synchronize via root
    CAS), a 16384-bucket hash table and the skip list's default tower
    seed. *)

(** {2 Rigs} *)

type rig = { bk : Asym_core.Backend.t; lat : Asym_sim.Latency.t }

val make_rig :
  ?name:string -> ?capacity:int -> ?max_sessions:int -> ?memlog_cap:int -> ?mirrors:int ->
  Asym_sim.Latency.t -> rig

val fresh_client : ?name:string -> rig -> Asym_core.Client.config -> Asym_core.Client.t
(** A client whose clock starts at the back-end's current horizon so it
    does not queue behind setup traffic. *)

val with_cache_pct : rig -> Asym_core.Client.config -> float -> Asym_core.Client.config
(** Size the front-end cache as a fraction of the NVM actually in use
    (Table 3 uses 10%). *)

(** {2 Measured runs} *)

val value_of : ?size:int -> int64 -> bytes

val preload_instance :
  Asym_structs.Catalogue.instance -> fifo:bool -> n:int -> value_size:int -> unit
(** Load [n] items: pushes for FIFO structures; for key/value structures,
    keys spread over the whole measurement key space in shuffled order
    (an ordered preload would degenerate the unbalanced trees). *)

type result = {
  kops : float;
  ops : int;
  elapsed : Asym_sim.Simtime.t;
  retries : int;
  cache_hits : int;
  cache_misses : int;
  verbs : int;  (** RDMA verbs posted during the measured window (0 for symmetric runs) *)
  wire_bytes : int;  (** payload bytes those verbs moved *)
  lat_mean_us : float;  (** mean per-operation virtual latency *)
  lat_p50_us : float;
  lat_p99_us : float;
  attr : (Asym_obs.Attr.cause * int) list;
      (** ns per cause over the measured window, every cause listed (all
          zero unless observability is on; empty for symmetric runs) *)
  round_trips : int;  (** signaled verbs, lock probes included (each pays a full RTT) *)
  resources : (string * int * int) list;
      (** back-end timelines that moved, by name: resource, queue ns, busy ns *)
}

val measure : clock:Asym_sim.Clock.t -> ops:int -> (int -> unit) -> float * Asym_sim.Simtime.t

val run_asym :
  ?shared:bool -> ?value_size:int -> ?cache_pct:float -> ?put_ratio:float ->
  ?dist:Asym_workload.Ycsb.distribution -> ?seed:int64 -> ?warmup:int -> rig:rig ->
  cfg:Asym_core.Client.config -> kind:Asym_structs.Catalogue.kind -> preload:int -> ops:int ->
  unit -> result
(** One Table-3-style cell on the AsymNVM architecture: preload through a
    throwaway client, warm the measurement client, measure. *)

val run_asym_trace :
  ?cache_pct:float -> ?seed:int64 -> rig:rig -> cfg:Asym_core.Client.config ->
  kind:Asym_structs.Catalogue.kind ->
  preload:int -> ops:int -> put_ratio:float -> unit -> result
(** Figure-13 variant: the synthetic industry trace (power-law keys,
    64 B – 8 KB values). *)

val run_sym :
  ?value_size:int -> ?put_ratio:float -> ?dist:Asym_workload.Ycsb.distribution -> ?seed:int64 ->
  lat:Asym_sim.Latency.t -> cfg:Asym_baseline.Local_store.config ->
  kind:Asym_structs.Catalogue.kind ->
  preload:int -> ops:int -> unit -> result
(** The same cell on the symmetric baseline. *)
