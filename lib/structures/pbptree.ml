(** Persistent B+Tree (lock-based, §8.3), fan-out 32.

    Fixed 512-byte nodes ({!Bnode}), values in out-of-line blobs, leaves
    chained for range scans. Upper levels are read through the cache with
    the adaptive depth threshold of §8.3; leaves below the threshold bypass
    it. Deletion is leaf-local (no rebalancing): emptied leaves stay
    linked, which keeps lookups correct — the standard relaxed B+Tree used
    by log-structured stores. *)

open Asym_core

let op_put = 1
let op_delete = 2
let op_vinsert = 3
let fanout = Bnode.fanout
let max_keys = Bnode.max_keys

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module N = Bnode

  type t = {
    s : S.t;
    h : Types.handle;
    lc : Level_cache.t;
    opts : Ds_intf.options;
  }

  let attach ?(opts = Ds_intf.locked_options) ?(cache_all_levels = false) s ~name =
    let h = S.register_ds s name in
    let lc =
      if cache_all_levels then Level_cache.create ~initial:12 ~period:max_int ~max_depth:12 ()
      else Level_cache.create ~initial:2 ~max_depth:12 ()
    in
    { s; h; lc; opts }

  let handle t = t.h

  let locked t f =
    if t.opts.Ds_intf.use_lock then begin
      S.writer_lock t.s t.h;
      Fun.protect ~finally:(fun () -> S.writer_unlock t.s t.h) f
    end
    else f ()

  (* [S.read] hands over a fresh node image the caller may edit. *)
  let load t ~depth addr = S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:N.size

  (* The store keeps [n] until its next flush: a stored node is never
     edited again. *)
  let store t ~ds addr n = S.write t.s ~ds ~addr n

  let alloc_node t ~ds n =
    let addr = S.malloc t.s N.size in
    store t ~ds addr n;
    addr

  (* Returns [Some (sep, right_addr)] if [addr] split. *)
  let rec insert_rec t ~ds addr depth key valptr =
    let n = load t ~depth addr in
    if N.is_leaf n then begin
      let pos = N.leaf_pos n key in
      if N.holds n pos key then begin
        let old = N.value n pos in
        N.set_value n pos valptr;
        store t ~ds addr n;
        B.free t.s old;
        None
      end
      else if N.nkeys n < max_keys then begin
        N.insert n pos key valptr;
        store t ~ds addr n;
        None
      end
      else begin
        let sep, right = N.split_leaf n in
        (if key >= sep then N.insert right (N.leaf_pos right key) key valptr
         else N.insert n (N.leaf_pos n key) key valptr);
        let right_addr = alloc_node t ~ds right in
        N.set_next n right_addr;
        store t ~ds addr n;
        Some (sep, right_addr)
      end
    end
    else begin
      let idx = N.child_index n key in
      match insert_rec t ~ds (N.child n idx) (depth + 1) key valptr with
      | None -> None
      | Some (sep, right_addr) ->
          if N.nkeys n < max_keys then begin
            N.insert n idx sep right_addr;
            store t ~ds addr n;
            None
          end
          else begin
            let osep, right = N.insert_split ~clear:true n idx sep right_addr in
            let raddr = alloc_node t ~ds right in
            store t ~ds addr n;
            Some (osep, raddr)
          end
    end

  let put_nolog t key value =
    let ds = t.h.Types.id in
    let valptr = B.alloc t.s ~ds value in
    let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
    (if root = 0 then begin
       let leaf = N.create ~leaf:true in
       N.insert leaf 0 key valptr;
       let addr = alloc_node t ~ds leaf in
       S.write_u64 t.s ~ds t.h.Types.root (Int64.of_int addr)
     end
     else
       match insert_rec t ~ds root 0 key valptr with
       | None -> ()
       | Some (sep, right_addr) ->
           let nroot = N.create ~leaf:false in
           N.set_child nroot 0 root;
           N.insert nroot 0 sep right_addr;
           let addr = alloc_node t ~ds nroot in
           S.write_u64 t.s ~ds t.h.Types.root (Int64.of_int addr));
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  let put t ~key ~value =
    locked t (fun () ->
        let ds = t.h.Types.id in
        ignore (S.op_begin t.s ~ds ~optype:op_put ~params:(Params.of_kv key value));
        put_nolog t key value;
        S.op_end t.s ~ds)

  let rec find_leaf t ~depth addr key =
    let n = load t ~depth addr in
    if N.is_leaf n then n
    else find_leaf t ~depth:(depth + 1) (N.child n (N.child_index n key)) key

  let find t ~key =
    let read () =
      let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
      if root = 0 then None
      else begin
        let leaf = find_leaf t ~depth:0 root key in
        let pos = N.leaf_pos leaf key in
        if N.holds leaf pos key then Some (B.read t.s (N.value leaf pos)) else None
      end
    in
    let v = if t.opts.Ds_intf.shared then S.read_section t.s t.h read else read () in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    v

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  let rec delete_rec t ~ds addr depth key =
    let n = load t ~depth addr in
    if N.is_leaf n then begin
      let pos = N.leaf_pos n key in
      if N.holds n pos key then begin
        let blob = N.value n pos in
        N.remove n pos;
        store t ~ds addr n;
        B.free t.s blob;
        true
      end
      else false
    end
    else delete_rec t ~ds (N.child n (N.child_index n key)) (depth + 1) key

  let delete t ~key =
    locked t (fun () ->
        let ds = t.h.Types.id in
        ignore (S.op_begin t.s ~ds ~optype:op_delete ~params:(Params.of_key key));
        let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
        let r = if root = 0 then false else delete_rec t ~ds root 0 key in
        S.op_end t.s ~ds;
        Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
        r)

  let insert_vector t pairs =
    let pairs = List.sort (fun (a, _) (b, _) -> Int64.compare a b) pairs in
    locked t (fun () ->
        let ds = t.h.Types.id in
        ignore (S.op_begin t.s ~ds ~optype:op_vinsert ~params:(Params.of_kvs pairs));
        List.iter (fun (key, value) -> put_nolog t key value) pairs;
        S.op_end t.s ~ds)

  (* In-order range scan over the leaf chain. *)
  let range t ~lo ~hi =
    let root = Int64.to_int (S.read_u64 ~hint:`Hot t.s t.h.Types.root) in
    if root = 0 then []
    else begin
      let leaf = ref (find_leaf t ~depth:0 root lo) in
      let out = ref [] in
      let continue_ = ref true in
      while !continue_ do
        let n = !leaf and nk = N.nkeys !leaf in
        for i = 0 to nk - 1 do
          let k = N.key n i in
          if k >= lo && k <= hi then out := (k, B.read t.s (N.value n i)) :: !out
        done;
        if nk > 0 && N.key n (nk - 1) > hi then continue_ := false
        else if N.next n = 0 then continue_ := false
        else leaf := load t ~depth:12 (N.next n)
      done;
      List.rev !out
    end

  let to_list t = range t ~lo:Int64.min_int ~hi:Int64.max_int

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | x when x = op_vinsert -> insert_vector t (Params.to_kvs op.Log.Op_entry.params)
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pbptree.replay: unknown optype %d" other
end
