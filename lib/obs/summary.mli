(** Aggregations over the span ring, for plain-text top-N reporting
    (the harness renders these through [Asym_harness.Report]). *)

type span_row = {
  sname : string;
  count : int;
  total_ns : int;
  mean_ns : float;
  max_ns : int;
}

val spans : ?top:int -> unit -> span_row list
(** Complete spans grouped by name, sorted by total simulated time,
    largest first; [top] truncates (default 15). *)

val format_ns : int -> string
(** Human-scaled simulated duration ("1.234ms"). *)
