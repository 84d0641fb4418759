(** The 512-byte B+Tree node of {!Pbptree} and {!Pmvbptree}. A node is
    its NVM image: the accessors read, and the mutations edit, the bytes
    [Store.S.read] returned, and [Store.S.write] stores them as they are.

    - internal: [[tag 2][nkeys][pad6][keys: 31 x u64][children: 32 x u64]]
    - leaf:     [[tag 1][nkeys][pad6][next: u64][keys: 31 x u64][values: 31 x u64]]

    In both kinds slot [i] (child [i] or value pointer [i]) sits
    [8 * max_keys] bytes after key [i]. *)

let size = 512
let fanout = 32
let max_keys = fanout - 1

let create ~leaf =
  let b = Bytes.make size '\000' in
  Bytes.set_uint8 b 0 (if leaf then 1 else 2);
  b

let is_leaf b = Bytes.get_uint8 b 0 = 1
let nkeys b = Bytes.get_uint8 b 1
let set_nkeys b n = Bytes.set_uint8 b 1 n
let key_off b = if is_leaf b then 16 else 8
let slot_off b = key_off b + (8 * max_keys)
let key b i = Bytes.get_int64_le b (key_off b + (8 * i))
let set_key b i (k : int64) = Bytes.set_int64_le b (key_off b + (8 * i)) k
let slot b i = Int64.to_int (Bytes.get_int64_le b (slot_off b + (8 * i)))
let set_slot b i p = Bytes.set_int64_le b (slot_off b + (8 * i)) (Int64.of_int p)
let child = slot
let set_child = set_slot
let value = slot
let set_value = set_slot
let next b = Int64.to_int (Bytes.get_int64_le b 8)
let set_next b p = Bytes.set_int64_le b 8 (Int64.of_int p)

(* Number of leading keys [k] with [k < key] ([strict]) or [k <= key]. *)
let count_below ~strict b (key : int64) =
  let n = nkeys b and o = key_off b in
  let i = ref 0 in
  while
    !i < n
    &&
    let k = Bytes.get_int64_le b (o + (8 * !i)) in
    k < key || ((not strict) && k = key)
  do
    incr i
  done;
  !i

(* Index of the child to descend into: number of separator keys <= key. *)
let child_index b key = count_below ~strict:false b key

(* Position of [key] in a leaf, or the insertion point. *)
let leaf_pos b key = count_below ~strict:true b key

(* Whether position [pos] holds [key]. *)
let holds b pos (key : int64) =
  pos < nkeys b && Bytes.get_int64_le b (key_off b + (8 * pos)) = key

(* Shift [count] u64 fields starting at byte [off] by [by] fields. *)
let shift b off count by = Bytes.blit b off b (off + (8 * by)) (8 * count)

(* In-place inserts into a node with room for one more key. A leaf's
   [ptr] is value [pos]; an internal node's is child [pos + 1]. *)
let insert b pos key ptr =
  let n = nkeys b and sp = if is_leaf b then pos else pos + 1 in
  shift b (key_off b + (8 * pos)) (n - pos) 1;
  shift b (slot_off b + (8 * sp)) (n - pos) 1;
  set_key b pos key;
  set_slot b sp ptr;
  set_nkeys b (n + 1)

(* Leaf delete: shift the entries past [pos] left. The last slot keeps its
   stale entry, as on media. *)
let remove b pos =
  let n = nkeys b in
  shift b (key_off b + (8 * (pos + 1))) (n - pos - 1) (-1);
  shift b (slot_off b + (8 * (pos + 1))) (n - pos - 1) (-1);
  set_nkeys b (n - 1)

(* Split a full leaf before inserting into it: the upper half moves to a
   new right sibling and is zeroed in [b]. Returns the separator and the
   right node. *)
let split_leaf b =
  let n = nkeys b in
  let half = n / 2 in
  let moved = n - half in
  let right = create ~leaf:true in
  Bytes.blit b (key_off b + (8 * half)) right (key_off right) (8 * moved);
  Bytes.blit b (slot_off b + (8 * half)) right (slot_off right) (8 * moved);
  Bytes.fill b (key_off b + (8 * half)) (8 * moved) '\000';
  Bytes.fill b (slot_off b + (8 * half)) (8 * moved) '\000';
  set_nkeys right moved;
  set_nkeys b half;
  set_next right (next b);
  (key right 0, right)

(* The rare path: insert into a full node through temporary arrays, then
   split the max_keys + 1 keys at the middle (a leaf's right half starts
   at the middle key, an internal node's after it). [b] becomes the left
   half; with [clear] its slots past the half are zeroed, otherwise they
   keep what the insert shifted there. Returns the separator and the new
   right node. *)
let insert_split ~clear b pos k ptr =
  let leaf = is_leaf b in
  let sp = if leaf then pos else pos + 1 in
  let nslots = if leaf then max_keys else fanout in
  let merged get at x len =
    Array.init (len + 1) (fun i ->
        if i < at then get b i else if i = at then x else get b (i - 1))
  in
  let keys = merged key pos k max_keys and slots = merged slot sp ptr nslots in
  let mid = (max_keys + 1) / 2 in
  let first_right = if leaf then mid else mid + 1 in
  let right = create ~leaf in
  Array.iteri (fun i k -> if i >= first_right then set_key right (i - first_right) k) keys;
  Array.iteri (fun i p -> if i >= first_right then set_slot right (i - first_right) p) slots;
  set_nkeys right (max_keys + 1 - first_right);
  for i = 0 to max_keys - 1 do
    set_key b i (if clear && i >= mid then 0L else keys.(i))
  done;
  for i = 0 to nslots - 1 do
    set_slot b i (if clear && i >= first_right then 0 else slots.(i))
  done;
  set_nkeys b mid;
  (keys.(mid), right)
