(** Latency attribution: a cause tag for every virtual nanosecond.

    [Sim.Clock] charges each forward movement of a clock into a global
    per-cause sink ({!charge} is called from [advance]/[wait_until], so
    the per-cause sums equal elapsed virtual time by construction — the
    conservation property the test suite asserts). Charging is a no-op
    while the observability gate is off. *)

type cause =
  | Rdma_rtt  (** fixed RDMA round-trip / atomic-verb latency *)
  | Rdma_bytes  (** wire serialization time, proportional to payload *)
  | Nic_queue  (** queueing behind other work on the remote NIC *)
  | Nvm_media  (** NVM media read/write time visible to the client *)
  | Lock_wait  (** acquiring the writer lock: CAS probes + spinning *)
  | Read_retry  (** optimistic read sections that failed validation *)
  | Replay_wait  (** persist fences waiting out back-end log replay *)
  | Alloc_rpc  (** management RPCs (allocation, naming, sessions) *)
  | Fault_retry
      (** transient-fault handling: verb-timeout waits, injected fabric
          delays, retry backoff and reconnect handshakes *)
  | Local_compute  (** front-end DRAM/CPU work (cache hits, buffering) *)

val all : cause list
val name : cause -> string

val charge : cause -> int -> unit
(** Add [d] ns to a cause (no-op when disabled or [d <= 0]). *)

val get : cause -> int
val total : unit -> int

val reset : unit -> unit

type snapshot

val snapshot : unit -> snapshot
(** A copy of the sink, for windowed deltas ({!since}). *)

val since : snapshot -> (cause * int) list
(** Per-cause ns charged since the snapshot (all causes). *)

val reattribute : since:snapshot -> cause -> unit
(** Re-classify everything charged since the snapshot as [cause]
    (total preserved) — how failed read-section attempts become
    [Read_retry]. *)

(** {2 Per-clock local sinks}

    Under the verb-granular co-simulation several clocks interleave
    their charges, so windowed deltas over the global sink would absorb
    other clients' causes. Each [Sim.Clock] owns a local sink;
    {!local_charge} updates both it and the global sink (which therefore
    remains the sum of all locals — global conservation is unchanged),
    while the windowed queries below see one clock only. *)

type local

val local_create : unit -> local
val local_charge : local -> cause -> int -> unit
val local_total : local -> int

val local_snapshot : local -> snapshot
val local_since : local -> snapshot -> (cause * int) list

val local_reattribute : local -> since:snapshot -> cause -> unit
(** {!reattribute} over one clock's window; the same deltas are mirrored
    into the global sink. *)

