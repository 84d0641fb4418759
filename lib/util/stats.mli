(** Small statistics toolkit for experiment reporting. *)

module Running : sig
  (** Online mean/variance accumulator (Welford). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

val mean : float array -> float
val percentile : float array -> float -> float
(** [percentile a p] with [p] in [\[0,100\]]; sorts a copy. *)
