open Asym_core

type kind = Queue | Stack | Hash_table | Skip_list | Bst | Bpt | Mv_bst | Mv_bpt
type family = Map | Lifo | Fifo

let all = [ Queue; Stack; Hash_table; Skip_list; Bst; Bpt; Mv_bst; Mv_bpt ]

let label = function
  | Queue -> "Queue"
  | Stack -> "Stack"
  | Hash_table -> "HashTable"
  | Skip_list -> "SkipList"
  | Bst -> "BST"
  | Bpt -> "BPT"
  | Mv_bst -> "MV-BST"
  | Mv_bpt -> "MV-BPT"

let id = function
  | Queue -> "pqueue"
  | Stack -> "pstack"
  | Hash_table -> "phash"
  | Skip_list -> "pskiplist"
  | Bst -> "pbst"
  | Bpt -> "pbptree"
  | Mv_bst -> "pmvbst"
  | Mv_bpt -> "pmvbptree"

let family = function Queue -> Fifo | Stack -> Lifo | _ -> Map

let of_name s =
  let canon s = String.lowercase_ascii (String.concat "" (String.split_on_char '-' s)) in
  List.find_opt (fun k -> canon (label k) = canon s || canon (id k) = canon s) all

type instance = {
  put : int64 -> bytes -> unit;
  get : int64 -> bytes option;
  del : int64 -> bool;
  push : bytes -> unit;
  pop : unit -> bytes option;
  vput : ((int64 * bytes) list -> unit) option;
  cleanup : unit -> unit;
  ds : Types.ds_id;
  replay : Log.Op_entry.t -> unit;
  dump : unit -> (int64 * bytes) list;
}

let by_key l = List.sort (fun (a, _) (b, _) -> Int64.compare a b) l

module Make (S : Store.S) = struct
  module Q = Pqueue.Make (S)
  module St = Pstack.Make (S)
  module H = Phash.Make (S)
  module K = Pskiplist.Make (S)
  module B = Pbst.Make (S)
  module P = Pbptree.Make (S)
  module Mb = Pmvbst.Make (S)
  module Mp = Pmvbptree.Make (S)

  let attach kind ~opts ~nbuckets ~skip_seed s ~name =
    let wrong what _ = Fmt.invalid_arg "Catalogue: %s is not a %s" (label kind) what in
    let map ?vput ?(gc = ignore) ~put ~get ~del (h : Types.handle) replay to_list =
      {
        put;
        get;
        del;
        push = wrong "queue or stack";
        pop = wrong "queue or stack";
        vput;
        cleanup =
          (fun () ->
            S.flush s;
            gc ());
        ds = h.Types.id;
        replay;
        dump = (fun () -> by_key (to_list ()));
      }
    in
    let seq ~push ~pop (h : Types.handle) replay to_list =
      {
        put = (fun _ -> wrong "key/value structure");
        get = wrong "key/value structure";
        del = wrong "key/value structure";
        push;
        pop;
        vput = None;
        cleanup = (fun () -> S.flush s);
        ds = h.Types.id;
        replay;
        dump = (fun () -> List.mapi (fun i v -> (Int64.of_int i, v)) (to_list ()));
      }
    in
    match kind with
    | Queue ->
        let t = Q.attach ~opts s ~name in
        seq ~push:(Q.enqueue t)
          ~pop:(fun () -> Q.dequeue t)
          (Q.handle t) (Q.replay t)
          (fun () -> Q.to_list t)
    | Stack ->
        let t = St.attach ~opts s ~name in
        seq ~push:(St.push t)
          ~pop:(fun () -> St.pop t)
          (St.handle t) (St.replay t)
          (fun () -> St.to_list t)
    | Hash_table ->
        let t = H.attach ~opts ~nbuckets s ~name in
        map
          ~put:(fun key value -> H.put t ~key ~value)
          ~get:(fun key -> H.get t ~key)
          ~del:(fun key -> H.delete t ~key)
          (H.handle t) (H.replay t)
          (fun () ->
            let acc = ref [] in
            H.iter t (fun k v -> acc := (k, v) :: !acc);
            !acc)
    | Skip_list ->
        let t = K.attach ~opts ~rng:(Asym_util.Rng.create ~seed:skip_seed) s ~name in
        map
          ~put:(fun key value -> K.put t ~key ~value)
          ~get:(fun key -> K.find t ~key)
          ~del:(fun key -> K.delete t ~key)
          (K.handle t) (K.replay t)
          (fun () -> K.to_list t)
    | Bst ->
        let t = B.attach ~opts s ~name in
        map ~vput:(B.insert_vector t)
          ~put:(fun key value -> B.put t ~key ~value)
          ~get:(fun key -> B.find t ~key)
          ~del:(fun key -> B.delete t ~key)
          (B.handle t) (B.replay t)
          (fun () -> B.to_list t)
    | Bpt ->
        let t = P.attach ~opts s ~name in
        map ~vput:(P.insert_vector t)
          ~put:(fun key value -> P.put t ~key ~value)
          ~get:(fun key -> P.find t ~key)
          ~del:(fun key -> P.delete t ~key)
          (P.handle t) (P.replay t)
          (fun () -> P.to_list t)
    | Mv_bst ->
        let t = Mb.attach ~opts s ~name in
        map
          ~gc:(fun () -> Mb.gc_drain t)
          ~put:(fun key value -> Mb.put t ~key ~value)
          ~get:(fun key -> Mb.find t ~key)
          ~del:(fun key -> Mb.delete t ~key)
          (Mb.handle t) (Mb.replay t)
          (fun () -> Mb.to_list t)
    | Mv_bpt ->
        let t = Mp.attach ~opts s ~name in
        map
          ~gc:(fun () -> Mp.gc_drain t)
          ~put:(fun key value -> Mp.put t ~key ~value)
          ~get:(fun key -> Mp.find t ~key)
          ~del:(fun key -> Mp.delete t ~key)
          (Mp.handle t) (Mp.replay t)
          (fun () -> Mp.to_list t)
end
