type kind = Complete of int | Instant

type event = {
  name : string;
  cat : string;
  track : string;
  ts : int;
  kind : kind;
  args : (string * int) list;
}

let dummy = { name = ""; cat = ""; track = ""; ts = 0; kind = Instant; args = [] }

(* Ring buffer, oldest-overwritten. [written] counts all events ever
   recorded since the last reset; the next write lands at
   [written mod capacity]. *)
type ring = { mutable buf : event array; mutable written : int; mutable latest : int }

let default_capacity = 65_536
let ring = { buf = Array.make default_capacity dummy; written = 0; latest = 0 }

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Span.set_capacity";
  ring.buf <- Array.make n dummy;
  ring.written <- 0

let reset () =
  Array.fill ring.buf 0 (Array.length ring.buf) dummy;
  ring.written <- 0;
  ring.latest <- 0

let record ev =
  let cap = Array.length ring.buf in
  ring.buf.(ring.written mod cap) <- ev;
  ring.written <- ring.written + 1;
  if ev.ts > ring.latest then ring.latest <- ev.ts

let complete ?(cat = "span") ?(args = []) ~track ~ts ~dur name =
  if Gate.enabled () then begin
    record { name; cat; track; ts; kind = Complete (max 0 dur); args };
    (* A span's end is the latest instant it touches. *)
    if ts + dur > ring.latest then ring.latest <- ts + dur
  end

let instant ?(cat = "event") ?(track = "events") ?ts name =
  if Gate.enabled () then
    let ts = match ts with Some t -> t | None -> ring.latest in
    record { name; cat; track; ts; kind = Instant; args = [] }

let with_span ?cat ~track ~now name f =
  if not (Gate.enabled ()) then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> complete ?cat ~track ~ts:t0 ~dur:(now () - t0) name) f
  end

let events () =
  let cap = Array.length ring.buf in
  let n = min ring.written cap in
  let first = ring.written - n in
  List.init n (fun i -> ring.buf.((first + i) mod cap))

let dropped () = max 0 (ring.written - Array.length ring.buf)
