type t = {
  starts : Simtime.t array;
  stops : Simtime.t array;
  capacity : int;
  mutable total : int;
  mutable oldest_known : Simtime.t;  (* windows ending before this were evicted *)
  mutable latest_stop : Simtime.t;  (* no window ever recorded ends after this *)
}

let create ?(capacity = 1024) () =
  {
    starts = Array.make capacity 0;
    stops = Array.make capacity 0;
    capacity;
    total = 0;
    oldest_known = 0;
    latest_stop = 0;
  }

let record t ~start_ ~stop =
  assert (stop >= start_);
  let i = t.total mod t.capacity in
  if t.total >= t.capacity then t.oldest_known <- Int.max t.oldest_known t.stops.(i);
  t.starts.(i) <- start_;
  t.stops.(i) <- stop;
  t.latest_stop <- Int.max t.latest_stop stop;
  t.total <- t.total + 1

(* A section that starts once every recorded window has ended — the
   common case, a reader that raced no writer — answers without a scan. *)
let overlaps t ~start_ ~stop =
  if start_ >= t.latest_stop then false
  else if start_ < t.oldest_known then true
  else begin
    let n = Int.min t.total t.capacity in
    let hit = ref false in
    let i = ref 0 in
    while (not !hit) && !i < n do
      if t.starts.(!i) < stop && start_ < t.stops.(!i) then hit := true;
      incr i
    done;
    !hit
  end

let count t = t.total
