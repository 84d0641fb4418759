(** Multi-version (copy-on-write) B+Tree — the append-only B-Tree of §6.2.

    Same 512-byte node ({!Bnode}) as {!Pbptree}, but nodes are immutable:
    an insert path-copies from leaf to root and installs the new version
    with a root CAS. Leaf chaining is dropped (a chained leaf would need
    in-place updates); in-order traversal goes through the tree. *)

open Asym_core

let op_put = 1
let op_delete = 2
let fanout = Bnode.fanout
let max_keys = Bnode.max_keys

module Make (S : Store.S) = struct
  module B = Blob.Make (S)
  module Gc = Lazy_gc.Make (S)
  module N = Bnode

  type t = {
    s : S.t;
    h : Types.handle;
    gc : Gc.t;
    lc : Level_cache.t;
    opts : Ds_intf.options;
    mutable last_root : int64;  (* version epoch observed by this reader *)
  }

  let attach ?(opts = Ds_intf.default_options) s ~name =
    let h = S.register_ds s name in
    {
      s;
      h;
      gc = Gc.create s;
      lc = Level_cache.create ~initial:2 ~max_depth:12 ();
      opts;
      last_root = 0L;
    }

  (* See Pmvbst.current_root: a root switch starts a new version epoch and
     drops the previous epoch's cached pages. *)
  let current_root t =
    let root = S.read_u64 ~hint:`Cold t.s t.h.Types.root in
    if t.opts.Ds_intf.shared && root <> t.last_root then begin
      S.invalidate_cache t.s;
      t.last_root <- root
    end;
    root

  let handle t = t.h
  let gc_pending t = Gc.pending t.gc
  let gc_drain t = Gc.drain t.gc

  (* [S.read] hands over a fresh copy: editing it never touches the
     version readers see. *)
  let load t ~depth addr = S.read ~hint:(Level_cache.hint t.lc ~depth) t.s ~addr ~len:N.size

  (* The store keeps [n] until its next flush: a stored node is never
     edited again. *)
  let alloc_node t ~ds ~created n =
    let addr = S.malloc t.s N.size in
    S.write t.s ~ds ~addr n;
    created := (addr, N.size) :: !created;
    addr

  (* Insert into a copied node, splitting it if it was full; the split
     halves keep the stale slots the insert shifted there. *)
  let insert_copy t ~ds ~created n pos key ptr =
    if N.nkeys n < max_keys then begin
      N.insert n pos key ptr;
      (alloc_node t ~ds ~created n, None)
    end
    else begin
      let sep, right = N.insert_split ~clear:false n pos key ptr in
      let laddr = alloc_node t ~ds ~created n in
      let raddr = alloc_node t ~ds ~created right in
      (laddr, Some (sep, raddr))
    end

  let rec with_root_swap t ~build ~attempt =
    if attempt > 16 then failwith "Pmvbptree: root CAS kept failing (more than one writer?)";
    let ds = t.h.Types.id in
    let old_root = S.read_u64 ~hint:`Cold t.s t.h.Types.root in
    let created = ref [] in
    let obsolete = ref [] in
    match build ~created ~obsolete (Int64.to_int old_root) with
    | None ->
        List.iter (fun (addr, len) -> S.free t.s addr ~len) !created;
        false
    | Some new_root ->
        if
          S.cas_u64 t.s ~ds t.h.Types.root ~expected:old_root
            ~desired:(Int64.of_int new_root)
          = old_root
        then begin
          List.iter (fun (addr, len) -> Gc.defer t.gc addr ~len) !obsolete;
          true
        end
        else begin
          List.iter (fun (addr, len) -> S.free t.s addr ~len) !created;
          with_root_swap t ~build ~attempt:(attempt + 1)
        end

  let put t ~key ~value =
    let ds = t.h.Types.id in
    ignore (S.op_begin t.s ~ds ~optype:op_put ~params:(Params.of_kv key value));
    ignore
      (with_root_swap t ~attempt:0 ~build:(fun ~created ~obsolete root ->
           let valptr = B.alloc t.s ~ds value in
           created := (valptr, B.size t.s valptr) :: !created;
           (* Copy-on-write insert: returns the copied child's address and
              an optional split to propagate. *)
           let rec ins addr depth =
             if addr = 0 then begin
               let leaf = N.create ~leaf:true in
               N.insert leaf 0 key valptr;
               (alloc_node t ~ds ~created leaf, None)
             end
             else begin
               let n = load t ~depth addr in
               obsolete := (addr, N.size) :: !obsolete;
               if N.is_leaf n then begin
                 let pos = N.leaf_pos n key in
                 if N.holds n pos key then begin
                   let old = N.value n pos in
                   obsolete := (old, B.size t.s old) :: !obsolete;
                   N.set_value n pos valptr;
                   (alloc_node t ~ds ~created n, None)
                 end
                 else insert_copy t ~ds ~created n pos key valptr
               end
               else begin
                 let idx = N.child_index n key in
                 let child', spl = ins (N.child n idx) (depth + 1) in
                 N.set_child n idx child';
                 match spl with
                 | None -> (alloc_node t ~ds ~created n, None)
                 | Some (sep, raddr) -> insert_copy t ~ds ~created n idx sep raddr
               end
             end
           in
           let new_child, spl = ins root 0 in
           match spl with
           | None -> Some new_child
           | Some (sep, raddr) ->
               let nroot = N.create ~leaf:false in
               N.set_child nroot 0 new_child;
               N.insert nroot 0 sep raddr;
               Some (alloc_node t ~ds ~created nroot)));
    S.op_end t.s ~ds;
    Gc.pump t.gc;
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s)

  let find t ~key =
    let read () =
      let rec go addr depth =
        if addr = 0 then None
        else begin
          let n = load t ~depth addr in
          if N.is_leaf n then begin
            let pos = N.leaf_pos n key in
            if N.holds n pos key then Some (B.read t.s (N.value n pos)) else None
          end
          else go (N.child n (N.child_index n key)) (depth + 1)
        end
      in
      go (Int64.to_int (current_root t)) 0
    in
    let v =
      if t.opts.Ds_intf.shared then S.read_section ~retry_on:`Torn t.s t.h read else read ()
    in
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    v

  let mem t ~key = match find t ~key with Some _ -> true | None -> false

  let delete t ~key =
    let ds = t.h.Types.id in
    ignore (S.op_begin t.s ~ds ~optype:op_delete ~params:(Params.of_key key));
    let changed =
      with_root_swap t ~attempt:0 ~build:(fun ~created ~obsolete root ->
          (* Leaf-local deletion with path copying (no rebalancing). *)
          let rec del addr depth =
            if addr = 0 then None
            else begin
              let n = load t ~depth addr in
              if N.is_leaf n then begin
                let pos = N.leaf_pos n key in
                if N.holds n pos key then begin
                  obsolete := (addr, N.size) :: !obsolete;
                  obsolete := (N.value n pos, B.size t.s (N.value n pos)) :: !obsolete;
                  N.remove n pos;
                  Some (alloc_node t ~ds ~created n)
                end
                else None
              end
              else begin
                let idx = N.child_index n key in
                match del (N.child n idx) (depth + 1) with
                | None -> None
                | Some child' ->
                    obsolete := (addr, N.size) :: !obsolete;
                    N.set_child n idx child';
                    Some (alloc_node t ~ds ~created n)
              end
            end
          in
          del root 0)
    in
    S.op_end t.s ~ds;
    Gc.pump t.gc;
    Level_cache.note_op t.lc ~stats:(S.cache_stats t.s);
    changed

  let fold t f init =
    let rec go acc addr =
      if addr = 0 then acc
      else begin
        let n = load t ~depth:8 addr in
        let acc = ref acc in
        if N.is_leaf n then
          for i = 0 to N.nkeys n - 1 do
            acc := f !acc (N.key n i) (B.read t.s (N.value n i))
          done
        else
          for i = 0 to N.nkeys n do
            acc := go !acc (N.child n i)
          done;
        !acc
      end
    in
    go init (Int64.to_int (S.read_u64 ~hint:`Cold t.s t.h.Types.root))

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  let replay t (op : Log.Op_entry.t) =
    match op.Log.Op_entry.optype with
    | x when x = op_put ->
        let key, value = Params.to_kv op.Log.Op_entry.params in
        put t ~key ~value
    | x when x = op_delete -> ignore (delete t ~key:(Params.to_key op.Log.Op_entry.params))
    | 0 -> ()
    | other -> Fmt.invalid_arg "Pmvbptree.replay: unknown optype %d" other
end
