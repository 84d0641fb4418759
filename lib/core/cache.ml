type policy = Lru | Rr | Hybrid

let policy_name = function Lru -> "LRU" | Rr -> "RR" | Hybrid -> "Hybrid"

type node = {
  id : int;
  mutable data : bytes;
  mutable last_use : int;
  mutable slot : int;  (* index in the dense array *)
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type t = {
  policy : policy;
  page : int;
  cap : int;  (* capacity in pages *)
  choose_set : int;
  rng : Asym_util.Rng.t;
  table : node Itbl.t;
  dense : node option array;
  mutable count : int;
  mutable mru : node option;
  mutable lru : node option;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable relinks : int;  (* recency-list moves that were not already-MRU no-ops *)
}

let create ?(choose_set = 32) ~policy ~page_size ~capacity_bytes rng =
  let cap = max 1 (capacity_bytes / page_size) in
  {
    policy;
    page = page_size;
    cap;
    choose_set;
    rng;
    table = Itbl.create (2 * cap);
    dense = Array.make cap None;
    count = 0;
    mru = None;
    lru = None;
    tick = 0;
    hits = 0;
    misses = 0;
    relinks = 0;
  }

let page_size t = t.page
let length t = t.count
let hits t = t.hits
let misses t = t.misses
let relinks t = t.relinks

(* -- recency list -------------------------------------------------------- *)

let detach t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  n.prev <- None;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let touch t n =
  t.tick <- t.tick + 1;
  n.last_use <- t.tick;
  (* Compare the nodes, not the options: [t.mru != Some n] tested
     physical inequality against a freshly boxed option, which is always
     true, so every hit on the MRU page detached and re-linked it. *)
  match t.mru with
  | Some m when m == n -> ()
  | _ ->
      t.relinks <- t.relinks + 1;
      detach t n;
      push_front t n

(* -- dense array (for random sampling) ----------------------------------- *)

let dense_add t n =
  n.slot <- t.count;
  t.dense.(t.count) <- Some n;
  t.count <- t.count + 1

let dense_remove t n =
  let last = t.count - 1 in
  (match t.dense.(last) with
  | Some m when m != n ->
      t.dense.(n.slot) <- Some m;
      m.slot <- n.slot
  | _ -> ());
  t.dense.(last) <- None;
  t.count <- last

(* -- eviction ------------------------------------------------------------ *)

let victim t =
  match t.policy with
  | Lru -> ( match t.lru with Some n -> n | None -> assert false)
  | Rr -> (
      match t.dense.(Asym_util.Rng.int t.rng t.count) with
      | Some n -> n
      | None -> assert false)
  | Hybrid ->
      (* Sample [choose_set] pages, evict the least recently used one. *)
      let best = ref None in
      for _ = 1 to t.choose_set do
        match t.dense.(Asym_util.Rng.int t.rng t.count) with
        | Some n -> (
            match !best with
            | Some b when b.last_use <= n.last_use -> ()
            | _ -> best := Some n)
        | None -> assert false
      done;
      (match !best with Some n -> n | None -> assert false)

let remove t n =
  Itbl.remove t.table n.id;
  detach t n;
  dense_remove t n

(* -- public operations ---------------------------------------------------- *)

let find t id =
  match Itbl.find_opt t.table id with
  | Some n ->
      touch t n;
      t.hits <- t.hits + 1;
      Some n.data
  | None ->
      t.misses <- t.misses + 1;
      None

let insert t id data =
  match Itbl.find_opt t.table id with
  | Some n ->
      n.data <- data;
      touch t n
  | None ->
      if t.count >= t.cap then remove t (victim t);
      let n = { id; data; last_use = 0; slot = 0; prev = None; next = None } in
      Itbl.replace t.table id n;
      dense_add t n;
      push_front t n;
      t.tick <- t.tick + 1;
      n.last_use <- t.tick

let patch t ~addr value =
  let len = Bytes.length value in
  let first = addr / t.page in
  let last = (addr + len - 1) / t.page in
  for id = first to last do
    match Itbl.find_opt t.table id with
    | None -> ()
    | Some n ->
        let page_base = id * t.page in
        let lo = Int.max addr page_base in
        let hi = Int.min (addr + len) (page_base + Bytes.length n.data) in
        if hi > lo then Bytes.blit value (lo - addr) n.data (lo - page_base) (hi - lo)
  done

(* Walk the live pages only: a failed read section clears a cache that
   holds a handful of pages out of hundreds of slots. *)
let clear t =
  for i = 0 to t.count - 1 do
    (match t.dense.(i) with Some n -> Itbl.remove t.table n.id | None -> ());
    t.dense.(i) <- None
  done;
  t.count <- 0;
  t.mru <- None;
  t.lru <- None
