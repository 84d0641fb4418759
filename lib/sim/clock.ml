type t = {
  name : string;
  mutable now : Simtime.t;
  mutable busy : Simtime.t;
  (* The latest time this clock may reach without suspending. Sched.run
     sets it from the earliest suspended task whenever it resumes this
     clock's owner; everywhere else it is [max_int], so clocks advanced
     outside a co-simulation (single-client runs, setup code) never
     perform Yield and never raise Effect.Unhandled. *)
  mutable horizon : Simtime.t;
  attr : Asym_obs.Attr.local;
  yield_ : unit Effect.t;  (* [Yield self], built once *)
}

(* Performed when a cooperating clock moves past its horizon — the
   suspension point that makes clients resumable inside operations.
   Sched runs each client under a handler for this effect and always
   resumes the globally-earliest clock. *)
type _ Effect.t += Yield : t -> unit Effect.t

let create ?(name = "node") () =
  let rec t =
    {
      name;
      now = 0;
      busy = 0;
      horizon = max_int;
      attr = Asym_obs.Attr.local_create ();
      yield_ = Yield t;
    }
  in
  t

let name t = t.name
let now t = t.now
let attr t = t.attr
let set_horizon t h = t.horizon <- h
let check t = if t.now > t.horizon then Effect.perform t.yield_

(* Every forward movement of [now] is charged to an attribution cause
   here, at the single choke point — so summing the per-cause sink always
   reproduces elapsed virtual time exactly (the conservation property).
   The same choke point is where a cooperating client suspends, once its
   clock has passed another client's: time lands on the clock first,
   then the scheduler takes over, so the side effects that follow the
   advance (a verb's media write, a lock CAS decision) execute at the
   verb's completion time in global virtual-time order. *)
let charge t cause d =
  assert (d >= 0);
  Asym_obs.Attr.local_charge t.attr cause d;
  t.now <- t.now + d;
  t.busy <- t.busy + d

let advance ?(cause = Asym_obs.Attr.Local_compute) t d =
  charge t cause d;
  check t

(* One verb's completion: four consecutive advances with nothing in
   between, so a single suspension at the end orders every side effect
   exactly as four would (DESIGN.md §8). *)
let advance_verb t ~queue ~rtt ~wire ~media =
  charge t Asym_obs.Attr.Nic_queue queue;
  charge t Asym_obs.Attr.Rdma_rtt rtt;
  charge t Asym_obs.Attr.Rdma_bytes wire;
  charge t Asym_obs.Attr.Nvm_media media;
  check t

let wait_until ?(cause = Asym_obs.Attr.Local_compute) t at =
  if at > t.now then begin
    Asym_obs.Attr.local_charge t.attr cause (at - t.now);
    t.now <- at;
    check t
  end

let busy t = t.busy

let utilization t ~since ~busy_since =
  let elapsed = t.now - since in
  if elapsed <= 0 then 0.0 else float_of_int (t.busy - busy_since) /. float_of_int elapsed

let reset t =
  t.now <- 0;
  t.busy <- 0
