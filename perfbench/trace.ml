(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer: a structure
   operation, or one Store.S call the structure makes into the client.
   Each span stores its name, host start and end, the span that caused it
   (its parent), the operation id shared by every span of one structure
   operation, the owning simulated client, and its {e owned} duration:
   end - start minus the time the owning client spent suspended by the
   co-simulation scheduler while the span was open. Under Sched.run a
   span's host interval also covers other clients' turns; only the
   owner's own running time is charged to it.

   Spans are kept in one growable int array and aggregated (or dumped)
   when the traced trial ends, so recording costs two clock reads and a
   few stores per span. *)

type kind =
  | Op_put
  | Op_get
  | Section_body
  | Read
  | Write
  | Op_begin
  | Op_end
  | Flush
  | Malloc
  | Writer_lock
  | Read_section
  | Other

let kinds =
  [|
    Op_put; Op_get; Section_body; Read; Write; Op_begin; Op_end; Flush; Malloc; Writer_lock;
    Read_section; Other;
  |]

let index = function
  | Op_put -> 0
  | Op_get -> 1
  | Section_body -> 2
  | Read -> 3
  | Write -> 4
  | Op_begin -> 5
  | Op_end -> 6
  | Flush -> 7
  | Malloc -> 8
  | Writer_lock -> 9
  | Read_section -> 10
  | Other -> 11

let name = function
  | Op_put -> "structs.put"
  | Op_get -> "structs.find"
  | Section_body -> "structs.section_body"
  | Read -> "client.read"
  | Write -> "client.write"
  | Op_begin -> "client.op_begin"
  | Op_end -> "client.op_end"
  | Flush -> "client.flush"
  | Malloc -> "client.malloc"
  | Writer_lock -> "client.writer_lock"
  | Read_section -> "client.read_section"
  | Other -> "client.other"

let is_structs = function Op_put | Op_get | Section_body -> true | _ -> false

(* -- the span store ------------------------------------------------------- *)

let fields = 7
let f_kind = 0
let f_client = 1
let f_op = 2
let f_parent = 3
let f_start = 4
let f_stop = 5
let f_owned = 6

let buf = ref [||]
let count = ref 0
let next_op = ref 0

let reset () =
  buf := Array.make (fields * 65536) 0;
  count := 0;
  next_op := 0

let release () =
  buf := [||];
  count := 0

let alloc () =
  let i = !count in
  if (i + 1) * fields > Array.length !buf then begin
    let nb = Array.make (max (fields * 65536) (2 * Array.length !buf)) 0 in
    Array.blit !buf 0 nb 0 (i * fields);
    buf := nb
  end;
  count := i + 1;
  i

let set i f v = Array.unsafe_set !buf ((i * fields) + f) v
let get i f = !buf.((i * fields) + f)

(* -- per-client recording state ------------------------------------------- *)

type client = {
  id : int;
  mutable open_span : int;  (** innermost open span, -1 when none *)
  mutable op : int;  (** id of the structure operation in progress *)
  mutable suspended_ns : int;  (** host time spent suspended by Sched *)
  mutable lifetime_ns : int;  (** host time from body start to body end *)
}

let client id = { id; open_span = -1; op = -1; suspended_ns = 0; lifetime_ns = 0 }

let span cl kind f =
  let i = alloc () in
  let parent = cl.open_span in
  set i f_kind (index kind);
  set i f_client cl.id;
  set i f_op cl.op;
  set i f_parent parent;
  cl.open_span <- i;
  let susp0 = cl.suspended_ns in
  let t0 = Hostclock.now_ns () in
  let finish () =
    let t1 = Hostclock.now_ns () in
    set i f_start t0;
    set i f_stop t1;
    set i f_owned (t1 - t0 - (cl.suspended_ns - susp0));
    cl.open_span <- parent
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let op_span cl kind f =
  cl.op <- !next_op;
  incr next_op;
  span cl kind f

(* Run a co-simulated client body, charging the client only its own
   running time: every suspension (Clock.Yield) is re-performed to the
   enclosing Sched.run handler, and the host time until this client is
   resumed is booked as suspended. Re-performing the same effect leaves
   the scheduler's decisions, and hence simulated time, untouched. *)
let owned_turns cl body =
  let t0 = Hostclock.now_ns () in
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> cl.lifetime_ns <- Hostclock.now_ns () - t0);
      exnc =
        (fun e ->
          cl.lifetime_ns <- Hostclock.now_ns () - t0;
          raise e);
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Asym_sim.Clock.Yield _ ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let s = Hostclock.now_ns () in
                  Effect.perform e;
                  cl.suspended_ns <- cl.suspended_ns + (Hostclock.now_ns () - s);
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let running_ns cl = cl.lifetime_ns - cl.suspended_ns

(* -- aggregation ---------------------------------------------------------- *)

type agg = { calls : int; owned_ns : int; self_ns : int }

(* Per-kind totals. A span's self time is its owned duration minus the
   owned durations of its direct children. *)
let aggregate () =
  let n = !count in
  let child = Array.make (max 1 n) 0 in
  for i = 0 to n - 1 do
    let p = get i f_parent in
    if p >= 0 then child.(p) <- child.(p) + get i f_owned
  done;
  let calls = Array.make (Array.length kinds) 0 in
  let owned = Array.make (Array.length kinds) 0 in
  let self = Array.make (Array.length kinds) 0 in
  for i = 0 to n - 1 do
    let k = get i f_kind in
    let o = get i f_owned in
    calls.(k) <- calls.(k) + 1;
    owned.(k) <- owned.(k) + o;
    self.(k) <- self.(k) + (o - child.(i))
  done;
  fun kind ->
    let k = index kind in
    { calls = calls.(k); owned_ns = owned.(k); self_ns = self.(k) }

(* Write at most [limit] spans as TSV: span id, op id, client, name,
   parent span, host start/end (ns, monotonic clock) and owned ns. *)
let dump ~limit path =
  let oc = open_out path in
  output_string oc "span\top\tclient\tname\tparent\tstart_ns\tend_ns\towned_ns\n";
  for i = 0 to min limit !count - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i (get i f_op) (get i f_client)
      (name kinds.(get i f_kind))
      (get i f_parent) (get i f_start) (get i f_stop) (get i f_owned)
  done;
  close_out oc

(* Where {!Workloads} writes the first traced trial's spans, if anywhere. *)
let dump_to : string option ref = ref None
