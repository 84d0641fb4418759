(** The span tracer: a bounded ring of timeline events keyed on
    {e simulated} time.

    Every event carries a [track] — the simulated resource it happened on
    (a client clock, a NIC timeline, the back-end CPU) — which the Chrome
    exporter maps to one thread lane each. Spans are "complete" events
    (start + duration), so a crash that unwinds a span mid-flight still
    leaves the buffer balanced: {!with_span} emits exactly one event per
    entry, exception or not. Instant events mark point occurrences (crash
    injected, torn write detected, mirror promoted).

    The ring drops the oldest events once {!set_capacity} is exceeded;
    {!dropped} reports how many. All recording is a no-op while the
    global gate is off. *)

type kind = Complete of int  (** duration in simulated ns *) | Instant

type event = {
  name : string;
  cat : string;  (** coarse taxonomy: "rdma", "core", "log", "rpc", "fault" *)
  track : string;
  ts : int;  (** simulated nanoseconds *)
  kind : kind;
  args : (string * int) list;
      (** integer annotations carried into the Chrome trace (the core
          layer attaches the per-operation attribution cause map here) *)
}

val set_capacity : int -> unit
(** Resize (and clear) the ring. Default 65536 events. *)

val reset : unit -> unit
(** Clear events and the dropped counter (works even while disabled). *)

(** {2 Recording} (no-ops while observability is disabled) *)

val complete :
  ?cat:string -> ?args:(string * int) list -> track:string -> ts:int -> dur:int -> string -> unit
(** A span known after the fact: [ts] its simulated start, [dur] its
    simulated length. [args] are integer annotations (ns by cause). *)

val instant : ?cat:string -> ?track:string -> ?ts:int -> string -> unit
(** A point event. [ts] defaults to the latest timestamp the tracer has
    seen — the right anchor for sites (e.g. the NVM device) that have no
    clock of their own. [track] defaults to ["events"]. *)

val with_span :
  ?cat:string -> track:string -> now:(unit -> int) -> string -> (unit -> 'a) -> 'a
(** [with_span ~track ~now name f] runs [f], then records a complete span
    from the entry timestamp to [now ()] — also when [f] raises, so
    crash-injection paths keep the trace balanced. Nesting works the
    obvious way: inner spans lie within their enclosing span. *)

(** {2 Reading} *)

val events : unit -> event list
(** Oldest first. *)

val dropped : unit -> int
(** Events lost to the ring cap since the last {!reset}. *)

