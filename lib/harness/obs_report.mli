(** Plain-text rendering of a traced run through {!Report}: the span
    ring's aggregates and the typed counters each node keeps. Safe to
    call with observability disabled (the span summary comes out
    empty). *)

val span_summary : ?top:int -> unit -> Report.t
(** Top-N spans by total simulated time (count / total / mean / max). *)

val counters : clients:Asym_core.Client.t list -> backends:Asym_core.Backend.t list -> Report.t
(** One row per non-zero counter of each client (verbs, round trips,
    bytes, flushes, cache, retries) and each back-end (RPCs, replay,
    NVM media, and every timeline's busy and queued time). *)
