(* Hash tables keyed by page and block ids. The ids are dense small
   ints, so they hash as themselves, and the table is never iterated, so
   bucket order is never observable. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
