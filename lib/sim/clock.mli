(** Per-node virtual clock with busy-time accounting.

    Each simulated node (front-end, back-end, mirror) owns one clock.
    [advance] models time the node spends doing work (counts as busy);
    [wait_until] models blocking on a remote event (idle). The busy/total
    split is what Figure 11 (CPU utilization) reports. *)

type t

type _ Effect.t += Yield : t -> unit Effect.t
(** Performed when a clock moves past its horizon (see {!set_horizon})
    — the suspension point of the verb-granular co-simulation.
    {!Sched.run} installs the handler; a clock advanced outside a
    scheduler has no horizon and never performs it. Each clock performs
    one value built at {!create}, so a suspension allocates nothing but
    its continuation. *)

val create : ?name:string -> unit -> t
val name : t -> string
val now : t -> Simtime.t

val advance : ?cause:Asym_obs.Attr.cause -> t -> Simtime.t -> unit
(** Spend [d] nanoseconds of busy time, charged to [cause] (default
    [Local_compute]) in the attribution sink when observability is on. *)

val advance_verb :
  t -> queue:Simtime.t -> rtt:Simtime.t -> wire:Simtime.t -> media:Simtime.t -> unit
(** The client side of one RDMA verb: [queue] ns charged to [Nic_queue],
    [rtt] to [Rdma_rtt], [wire] to [Rdma_bytes] and [media] to
    [Nvm_media], then one suspension check — the same as four
    {!advance}s, because no side effect sits between them. *)

val wait_until : ?cause:Asym_obs.Attr.cause -> t -> Simtime.t -> unit
(** Block (idle) until the given absolute time, if it is in the future.
    The idle gap is charged to [cause] (default [Local_compute]). *)

val busy : t -> Simtime.t
(** Total busy time accumulated so far. *)

val attr : t -> Asym_obs.Attr.local
(** This clock's attribution sink: everything [advance]/[wait_until]
    charge lands here {e and} in the global sink. Per-operation windows
    are taken against this local sink so they survive mid-operation
    suspension under the co-simulation. *)

val set_horizon : t -> Simtime.t -> unit
(** The latest time this clock may reach without performing {!Yield};
    [max_int] (the default) never yields. Only {!Sched.run} should set
    a finite horizon — a clock that can yield must be running under its
    handler. *)

val utilization : t -> since:Simtime.t -> busy_since:Simtime.t -> float
(** Utilization over the window from [since] (with [busy_since] the busy
    counter sampled at that moment) to now. *)

val reset : t -> unit
