(** Zipfian key generator, YCSB-compatible.

    Produces integers in [\[0, n)] where rank-[k] items are drawn with
    probability proportional to [1 / (k+1)^theta]. The implementation
    follows the classic Gray et al. "Quickly generating billion-record
    synthetic databases" algorithm used by YCSB, including the scrambled
    variant that spreads hot keys over the whole key space. *)

type t

val create : ?theta:float -> n:int -> Rng.t -> t
(** [create ~theta ~n rng]. [theta] defaults to 0.99 (YCSB default);
    [n] must be positive. *)

val next : t -> int
(** Next zipfian-distributed rank in [\[0, n)] (rank 0 is the hottest). *)

val next_scrambled : t -> int
(** Like {!next} but hashes the rank so hot items are scattered uniformly
    across the key space, as YCSB's [ScrambledZipfianGenerator] does. *)

val theta : t -> float
