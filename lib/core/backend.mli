(** The back-end NVM node.

    Owns the NVM device, the global naming space, the slab allocator, the
    per-session log rings and the replay engine. Entirely {e passive}: it
    never initiates communication — front-ends either touch its memory with
    one-sided verbs or invoke the fixed RPC set of Table 1, and the only
    CPU it spends is replaying persisted memory logs into the data area and
    serving allocator/naming RPCs (which is why its utilization in
    Figure 11 stays under ~10%). *)

type t

val create :
  ?name:string ->
  ?max_sessions:int ->
  ?memlog_cap:int ->
  ?oplog_cap:int ->
  ?slab_size:int ->
  capacity:int ->
  Asym_sim.Latency.t ->
  t
(** Initialize a fresh back-end on a new NVM device. *)

val of_device : ?name:string -> Asym_nvm.Device.t -> Asym_sim.Latency.t -> t
(** Bring up a back-end over an existing, already-formatted device (mirror
    promotion, restart after permanent-failure recovery). Replays any
    pending logs, exactly like {!restart}. *)

val name : t -> string
val device : t -> Asym_nvm.Device.t
val nic : t -> Asym_sim.Timeline.t
val cpu : t -> Asym_sim.Timeline.t

val timelines : t -> Asym_sim.Timeline.t list
(** The NIC, the CPU and every writer-lock timeline, in that order. *)

val latency : t -> Asym_sim.Latency.t
val layout : t -> Layout.t

val attach_mirror : t -> Mirror.t -> unit
val mirrors : t -> Mirror.t list

(** {2 Failure injection} *)

val crash : ?torn_keep:int -> t -> unit
(** Crash the back-end. [torn_keep] tears the most recent NVM write down
    to its first [torn_keep] bytes (simulating a partially drained RDMA
    write). Until {!restart}, every RPC and replay raises
    {!Asym_rdma.Verbs.Failure_detected}. *)

val is_crashed : t -> bool

type session_status = Session_consistent | Session_torn_tail

val restart : t -> (Types.session_id * session_status) list
(** Reboot: reload layout, naming, allocator and session metadata from the
    media, then redo every intact memory-log transaction found past each
    session's LPN (§7.2 Case 3.a). Sessions whose log tail fails its
    checksum are reported as [Session_torn_tail] (Case 3.b) — their
    front-end must re-flush. *)

(** {2 RPC (management interface, §5.1)} *)

val rpc :
  t -> conn:Asym_rdma.Verbs.conn -> session:Types.session_id option -> Rpc_msg.request ->
  Rpc_msg.response
(** Execute one management RPC, charging the calling client two network
    round trips plus the back-end processing time (RFP model). *)

(** {2 Log ingestion (called by the front-end library)} *)

val memlog_ring : t -> session:Types.session_id -> int * int
val oplog_ring : t -> session:Types.session_id -> int * int

val drain_session : t -> session:Types.session_id -> arrival:Asym_sim.Simtime.t -> unit
(** Replay all complete transactions sitting in the session's memory-log
    ring: apply entries to the data area, bump the per-structure sequence
    number around each application (recording the conflict window), advance
    and persist the LPN and OPN, forward the stream to mirrors. Work is
    charged to the back-end CPU timeline starting at [arrival]; the caller
    is not blocked. *)

val note_heads :
  t -> session:Types.session_id -> ?memlog_head:int -> ?oplog_head:int ->
  ?next_opnum:int64 -> unit -> unit
(** Front-end libraries keep the back-end's volatile view of their append
    cursors in sync (the durable truth is the ring contents themselves). *)

val note_op_offset : t -> session:Types.session_id -> opnum:int64 -> offset:int -> unit
(** Record where an operation-log entry landed, enabling op-log ring
    garbage collection once the OPN passes it. *)

val replicate_raw : t -> at:Asym_sim.Simtime.t -> addr:Types.addr -> bytes -> unit
(** Forward bytes that a front-end wrote with a one-sided verb (operation
    logs, root CAS words) to the mirrors, so the replica image stays
    byte-identical for promotion. *)

(** {2 Concurrency support} *)

val lock_timeline : t -> Types.addr -> Asym_sim.Timeline.t
(** The contention timeline of the writer lock at [addr]. *)

val conflict_overlaps :
  t -> ds:Types.ds_id -> start_:Asym_sim.Simtime.t -> stop:Asym_sim.Simtime.t -> bool
(** Did any memory-log application to structure [ds] overlap the window?
    This is the simulation's equivalent of comparing the sequence number
    before and after an optimistic read (§6.3 Algorithm 2). *)

val seqno : t -> ds:Types.ds_id -> int64

(** {2 Recovery support (§7.2)} *)

val unreplayed_ops : t -> session:Types.session_id -> Log.Op_entry.t list
(** Operation-log records past the session's OPN — the operations whose
    memory logs never became durable and must be re-executed by the
    front-end (Cases 2.b/2.c). Lock-ahead records are excluded. *)

val abandoned_locks : t -> session:Types.session_id -> Types.addr list
(** Locks for which the session logged an acquire without a matching
    release — the lock-ahead log of §6.1. *)

val force_release_lock : t -> Types.addr -> at:Asym_sim.Simtime.t -> unit

val session_cursors : t -> session:Types.session_id -> Rpc_msg.cursors

(** {2 Statistics} *)

val replayed_txs : t -> int
val replayed_entries : t -> int

(** Memory-log frames scanned with an OPN at or below the session's
    covered cursor — retransmissions from a client retry after a lost
    ack. They are absorbed idempotently (redo entries carry absolute
    addresses); this counter makes the dedup explicit and testable. *)
val dup_replays_absorbed : t -> int
val rpcs_served : t -> int
val used_slabs : t -> int
