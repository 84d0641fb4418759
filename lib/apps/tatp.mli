(** The TATP telecom benchmark (paper §9.2, Table 3's TX(TATP) row).

    Four tables indexed by persistent B+Trees — the structure the paper
    assigns to TATP: Subscriber, Access_Info, Special_Facility and
    Call_Forwarding, with composite keys packed into 64 bits. The seven
    standard transactions are implemented with the standard abort rules
    (missing rows, call-forwarding primary-key violations). *)

type txn =
  | Get_subscriber_data  (** 35% of the standard mix *)
  | Get_new_destination  (** 10% *)
  | Get_access_data  (** 35% *)
  | Update_subscriber_data  (** 2% *)
  | Update_location  (** 14% *)
  | Insert_call_forwarding  (** 2% *)
  | Delete_call_forwarding  (** 2% *)

val default_mix : (txn * int) list
val txn_name : txn -> string

module Make (S : Asym_core.Store.S) : sig
  module T : module type of Asym_structs.Pbptree.Make (S)

  type t

  val attach : ?opts:Asym_structs.Ds_intf.options -> S.t -> name:string -> t

  val populate : t -> Asym_util.Rng.t -> subscribers:int -> unit
  (** TATP population rules: every subscriber gets 1–4 access-info rows
      and 1–4 special facilities, each with 0–3 call-forwarding rows. *)

  (** {2 The seven transactions} *)

  val get_subscriber_data : t -> s_id:int -> bytes option
  val get_new_destination : t -> s_id:int -> sf_type:int -> start_time:int -> bytes option
  val get_access_data : t -> s_id:int -> ai_type:int -> bytes option
  val update_subscriber_data : t -> s_id:int -> sf_type:int -> bits:int -> bool
  val update_location : t -> s_id:int -> vlr:int -> bool
  val insert_call_forwarding : t -> s_id:int -> sf_type:int -> start_time:int -> numberx:int -> bool
  val delete_call_forwarding : t -> s_id:int -> sf_type:int -> start_time:int -> bool

  (** {2 Harness hooks} *)

  val run_random : t -> Asym_util.Rng.t -> subscribers:int -> mix:(txn * int) list -> unit
  val commits : t -> int
  val aborts : t -> int
end
