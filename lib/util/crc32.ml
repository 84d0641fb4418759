(* The table and the running remainder are plain [int]s (the low 32
   bits), so the loop neither boxes nor calls [Int32] primitives; the
   [int32] interface converts once at each end. *)
let table =
  lazy
    (let t = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     t)

let digest ?(init = 0l) b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let table = Lazy.force table in
  let c = ref (Int32.to_int init land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    let idx = (!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let digest_bytes b = digest b ~pos:0 ~len:(Bytes.length b)
let digest_string s = digest_bytes (Bytes.unsafe_of_string s)
