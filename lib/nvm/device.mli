(** Simulated byte-addressable non-volatile memory device.

    Models the durability properties AsymNVM relies on:
    - any completed write is durable (the ack the RDMA NIC returns after
      DDIO/ADR drains to the persistence domain);
    - a write in flight when the host crashes may be {e torn}: only a
      prefix of it reaches the media. {!tear_last_write} reverts the
      suffix of the most recent write, which is exactly the failure the
      per-transaction checksum (paper §4.2) exists to detect.

    The device never loses completed writes across {!crash_restart}; only
    the torn suffix (if injected) differs. Media latencies are exposed as
    cost functions; charging them to the right clock is the caller's
    (NIC's / backend CPU's) job.

    The media are sparse: a table of {!chunk_size}-byte chunks in which
    every chunk that never held a non-zero byte shares one all-zero
    chunk. A chunk gets its own buffer on its first non-zero write and
    keeps it; zeroing it fills it in place. Host memory therefore follows
    the bytes a run touches, not the simulated capacity. None of this is
    visible to the simulation: reads, counters, costs and tears behave as
    on a flat zero-filled image. *)

type t

type addr = int
(** Byte offset into the device. The paper uses 64-bit NVM addresses; a
    63-bit OCaml [int] is plenty for simulated capacities. *)

val create : ?name:string -> capacity:int -> Asym_sim.Latency.t -> t
val name : t -> string
val capacity : t -> int
val latency : t -> Asym_sim.Latency.t

val chunk_size : int
(** Granularity of the sparse media, 4 KiB. *)

val read : t -> addr:addr -> len:int -> bytes
val read_u64 : t -> addr:addr -> int64
val write : t -> addr:addr -> bytes -> unit
val write_u64 : t -> addr:addr -> int64 -> unit

val zero : t -> addr:addr -> len:int -> unit
(** [zero t ~addr ~len] is [write t ~addr (Bytes.make len '\000')] without
    the buffer: it counts one write of [len] bytes, is a ["nvm.write"]
    crash point and is tearable like any write. *)

val compare_and_swap : t -> addr:addr -> expected:int64 -> desired:int64 -> int64
(** Atomic 8-byte CAS; returns the previous value. *)

val fetch_add : t -> addr:addr -> int64 -> int64
(** Atomic 8-byte add; returns the previous value. *)

val read_cost : t -> len:int -> Asym_sim.Simtime.t
val write_cost : t -> len:int -> Asym_sim.Simtime.t

val tear_last_write : t -> keep:int -> unit
(** Simulate a crash tearing the most recent write: only its first [keep]
    bytes persist; the rest revert to the previous contents. No-op if
    there was no write yet. *)

val crash_restart : t -> unit
(** Power-cycle the device. Durable contents are preserved; the
    tear-injection bookkeeping is reset. *)

val last_write_len : t -> int option
(** Length of the most recent write (the one {!tear_last_write} would
    tear), or [None] after {!crash_restart} / before any write. Used by
    the crash-point explorer to pick a tear offset. *)

val reads_performed : t -> int
val writes_performed : t -> int
val bytes_written : t -> int

val resident_bytes : t -> int
(** Host memory held by chunks with their own buffer. *)

val copy : src:t -> dst:t -> unit
(** Make [dst]'s contents equal to [src]'s (mirror synchronization and
    promotion), moving only the chunks either side has touched. Counters
    and tear bookkeeping are left alone. Raises [Invalid_argument] if the
    capacities differ. *)

val equal : t -> t -> bool
(** Same capacity and same contents. *)
