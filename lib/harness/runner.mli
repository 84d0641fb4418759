(** Shared machinery for the experiment harness.

    Builds rigs (one back-end each), attaches
    {!Asym_structs.Catalogue} structures with the harness's parameters on
    both architectures, and runs the standard preload → warm-up → measure
    cycle that every single-client cell uses. Throughput is virtual-time
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
  ?name:string -> ?capacity:int -> ?max_sessions:int -> ?memlog_cap:int ->
  Asym_sim.Latency.t -> rig

val fresh_client : ?name:string -> rig -> Asym_core.Client.config -> Asym_core.Client.t
(** A client whose clock starts at the back-end's current horizon so it
    does not queue behind setup traffic. *)

val with_cache_pct : rig -> Asym_core.Client.config -> float -> Asym_core.Client.config
(** Size the front-end cache as a fraction of the NVM actually in use
    (Table 3 uses 10%). *)

(** {2 Preload} *)

val value_of : int64 -> bytes
(** The 64-byte value stored under a key. *)

val preload_instance :
  Asym_structs.Catalogue.kind -> Asym_structs.Catalogue.instance -> n:int -> unit
(** Load [n] items: pushes for FIFO structures; for key/value structures,
    keys spread over the whole measurement key space in shuffled order
    (an ordered preload would degenerate the unbalanced trees). *)

val preload : rig -> Asym_structs.Catalogue.kind -> name:string -> n:int -> unit
(** {!preload_instance} the structure persisted under [name] through a
    throwaway RCB-256 client named [name ^ ".preload"]. *)

(** {2 Measured runs} *)

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

val kops : ops:int -> Asym_sim.Simtime.t -> float
(** Virtual-time throughput: [ops] over [elapsed], in thousands per
    second (0 for an empty span). *)

val measure :
  clock:Asym_sim.Clock.t -> ops:int -> (int -> unit) ->
  float * Asym_sim.Simtime.t * float array
(** Call [f 0 .. f (ops - 1)] on [clock]: KOPS, elapsed virtual time and
    each operation's virtual latency in us. *)

type mix =
  | Ycsb of Asym_workload.Ycsb.distribution  (** fixed 64 B values *)
  | Trace  (** Figure 13's synthetic industry trace: power-law keys, 64 B – 8 KB values *)

val run_asym :
  ?cache_pct:float -> ?put_ratio:float -> ?mix:mix -> rig:rig ->
  cfg:Asym_core.Client.config -> kind:Asym_structs.Catalogue.kind -> preload:int -> ops:int ->
  unit -> result
(** One Table-3-style cell on the AsymNVM architecture: preload through a
    throwaway client, warm the measurement client (YCSB mixes only),
    measure. [put_ratio] (default 1.0) is the share of puts, or of pushes
    for FIFO structures; [mix] defaults to uniform YCSB. *)

val run_sym :
  lat:Asym_sim.Latency.t -> cfg:Asym_baseline.Local_store.config ->
  kind:Asym_structs.Catalogue.kind ->
  preload:int -> ops:int -> unit -> result
(** The default {!run_asym} cell (100% put, uniform keys) on the
    symmetric baseline. *)
