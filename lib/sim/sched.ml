(* Verb-granular co-simulation engine.

   Each client runs inside an OCaml 5 effect handler. While a client
   runs, its clock carries a horizon: the latest time it may reach and
   still be the globally-earliest clock. An advance that passes the
   horizon performs [Clock.Yield] (see Clock.advance), the handler
   captures the continuation, and the scheduler resumes the
   globally-earliest clock — so clients suspend and resume *inside*
   operations, but only when another client is really due.

   Determinism: the next client to run is a pure function of virtual
   time — a binary min-heap keyed on (clock value, client id), with the
   client id (list position passed to [run]) as the fixed tie-break.
   Same program + same seeds therefore produce the same interleaving,
   byte for byte. *)

type client = { clock : Clock.t; run : unit -> unit }

let client ~clock ~run = { clock; run }

(* -- task execution under the handler ----------------------------------- *)

(* A task's state is what its last run returned: a suspension stores the
   handler's [Yielded] as is, so a switch allocates only the
   continuation and that one block. *)
type status =
  | Start of (unit -> unit)
  | Yielded of (unit, status) Effect.Deep.continuation
  | Done

type task = {
  id : int;
  tclock : Clock.t;
  mutable at : Simtime.t;  (* heap key: clock sampled at suspension *)
  mutable state : status;
}

let handler : (status, status) Effect.Deep.handler =
  {
    retc = (fun s -> s);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Clock.Yield _ ->
            Some (fun (k : (a, status) Effect.Deep.continuation) -> Yielded k)
        | _ -> None);
  }

let exec t =
  match t.state with
  | Start f -> Effect.Deep.match_with (fun () -> f (); Done) () handler
  | Yielded k -> Effect.Deep.continue k ()
  | Done -> Done

(* -- binary min-heap on (at, id) ----------------------------------------- *)

module Heap = struct
  type t = { mutable a : task array; mutable n : int }

  let create ~dummy cap = { a = Array.make (max 1 cap) dummy; n = 0 }
  let before x y = x.at < y.at || (x.at = y.at && x.id < y.id)

  let push h t =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) h.a.(0) in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- t;
    while !i > 0 && before h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  (* The earliest task; [h] must not be empty. *)
  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    if h.n > 0 then begin
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.n && before h.a.(l) h.a.(!s) then s := l;
        if r < h.n && before h.a.(r) h.a.(!s) then s := r;
        if !s = !i then continue_ := false
        else begin
          let tmp = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !s
        end
      done
    end;
    top
end

(* -- scheduler ------------------------------------------------------------ *)

(* The horizon of task [t], about to run: the latest time its clock may
   reach while its key (now, id) stays before the earliest suspended
   task's — on equal times the lower id goes first. The heap does not
   change while [t] runs, so one value holds until [t] yields. *)
let horizon (h : Heap.t) t =
  if h.n = 0 then max_int
  else
    let m = h.a.(0) in
    if m.id > t.id then m.at else m.at - 1

let run clients =
  match clients with
  | [] -> ()
  | clients ->
      let tasks =
        List.mapi
          (fun id c -> { id; tclock = c.clock; at = Clock.now c.clock; state = Start c.run })
          clients
      in
      let h = Heap.create ~dummy:(List.hd tasks) (List.length tasks) in
      List.iter (fun t -> Heap.push h t) tasks;
      Fun.protect
        ~finally:(fun () -> List.iter (fun c -> Clock.set_horizon c.clock max_int) clients)
        (fun () ->
          while h.n > 0 do
            let t = Heap.pop h in
            Clock.set_horizon t.tclock (horizon h t);
            match exec t with
            | Yielded _ as s ->
                t.at <- Clock.now t.tclock;
                t.state <- s;
                Heap.push h t
            | Start _ | Done -> ()
          done)

let makespan clocks = List.fold_left (fun acc c -> Simtime.max acc (Clock.now c)) 0 clocks
