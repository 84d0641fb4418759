(** The eight persistent structures of §8, declared once.

    Every structure is written once as a functor over
    {!Asym_core.Store.S}. This module names each of them ({!kind}),
    gives its two spellings — the label the experiment tables print and
    the id the crash-point checker reports — and its model family, and
    attaches any of them on any store behind one {!instance} record.
    The experiment harness, the checker and the CLI all go through it. *)

type kind = Queue | Stack | Hash_table | Skip_list | Bst | Bpt | Mv_bst | Mv_bpt

type family =
  | Map  (** key/value: put/get/del *)
  | Lifo  (** stack: push/pop, newest first *)
  | Fifo  (** queue: push/pop, oldest first *)

val all : kind list
(** In table order: the experiment tables print their rows in this order. *)

val label : kind -> string
(** Table label, e.g. ["BST"], ["MV-BPT"]. *)

val id : kind -> string
(** Checker id, e.g. ["pbst"], ["pmvbptree"]: the structure's module name. *)

val family : kind -> family

val of_name : string -> kind option
(** Resolves either spelling, ignoring case and dashes: ["pbptree"],
    ["BPT"], ["bpt"], ["mv-bpt"] and ["pmvbptree"] all resolve. *)

(** One attached instance. Key/value structures implement
    [put]/[get]/[del]; queue and stack implement [push]/[pop]; the other
    family's operations raise [Invalid_argument]. *)
type instance = {
  put : int64 -> bytes -> unit;
  get : int64 -> bytes option;
  del : int64 -> bool;
  push : bytes -> unit;
  pop : unit -> bytes option;
  vput : ((int64 * bytes) list -> unit) option;  (** Algorithm 3, BST and B+Tree only *)
  cleanup : unit -> unit;  (** flush the store's logs, then drain deferred MV garbage *)
  ds : Asym_core.Types.ds_id;  (** the id recovery dispatches [replay] on *)
  replay : Asym_core.Log.Op_entry.t -> unit;  (** re-execute one op-log record (§7.2) *)
  dump : unit -> (int64 * bytes) list;
      (** Canonical state: maps key-sorted, sequences as
          [(position, element)] with position 0 the top (LIFO) or head
          (FIFO). *)
}

module Make (S : Asym_core.Store.S) : sig
  val attach :
    kind ->
    opts:Ds_intf.options ->
    nbuckets:int ->
    skip_seed:int64 ->
    S.t ->
    name:string ->
    instance
  (** Create or open the structure persisted under [name]. [nbuckets] is
      the hash table's bucket count and [skip_seed] seeds the skip list's
      tower heights; each is ignored by the other kinds. *)
end
