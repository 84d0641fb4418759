(* Turns the trials of one run into named metrics, prints them with their
   unit and clock, and renders the result line the benchmark ends with.

   Clocks: [host] is the simulator's own wall-clock / GC / memory cost;
   [virtual] is simulated time, which the paper's results are about;
   [count] is a simulated event count (repeats exactly for a seed). *)

type metric = { name : string; unit_ : string; clock : string }

let m name unit_ clock = { name; unit_; clock }

(* End-to-end metrics, reported by untraced runs. *)
let end_to_end =
  [
    m "setup_s" "s" "host";
    m "host_kops" "kop/s" "host";
    m "alloc_words_per_op" "words/op" "host";
    m "peak_rss_mb" "MiB" "host";
    m "sim_kops" "kop/s" "virtual";
    m "sim_mean_us" "us" "virtual";
    m "sim_tail_us" "us" "virtual";
  ]

(* Printed for reading, not part of the result line: per-op virtual
   latency takes few distinct values, so these quantiles often repeat
   exactly across seeds. *)
let quantiles = [ m "sim_p50_us" "us" "virtual"; m "sim_p99_us" "us" "virtual" ]

let client_layer =
  List.concat_map
    (fun k ->
      let n = Trace.name k in
      [ m (n ^ ".calls_per_op") "calls/op" "count"; m (n ^ ".ns_per_call") "ns" "host" ])
    Workloads.client_kinds

(* Per-layer metrics, reported by traced runs. *)
let per_layer =
  [
    m "harness.rig_create_s" "s" "host";
    m "structs.preload_s" "s" "host";
    m "structs.self_ns_per_op" "ns/op" "host";
  ]
  @ client_layer
  @ [
      m "sched.self_s" "s" "host";
      m "gc.minor_per_kop" "1/kop" "host";
      m "gc.major_per_kop" "1/kop" "host";
      m "rdma.verbs_per_op" "verbs/op" "count";
      m "rdma.bytes_per_op" "B/op" "count";
      m "cache.hit_ratio" "ratio" "count";
      m "alloc.slab_rpcs_per_op" "rpcs/op" "count";
      m "client.flushes_per_op" "1/op" "count";
      m "backend.rpcs_per_op" "rpcs/op" "count";
      m "backend.replayed_entries_per_op" "1/op" "count";
      m "backend.cpu_busy_frac" "ratio" "virtual";
      m "nvm.writes_per_op" "1/op" "count";
      m "nvm.write_amp" "ratio" "count";
      m "mirror.bytes_per_op" "B/op" "count";
      m "client.read_retries_per_read" "ratio" "count";
      m "client.read_useful_frac" "ratio" "count";
      m "client.lock_wait_ns_per_op" "ns/op" "virtual";
      m "backend.nic_busy_frac" "ratio" "virtual";
      m "backend.nic_queued_ns_per_op" "ns/op" "virtual";
    ]
  @ List.map
      (fun c -> m ("attr." ^ Asym_obs.Attr.name c ^ "_ns_per_op") "ns/op" "virtual")
      Asym_obs.Attr.all
  @ [
      m "backend.restart_s" "s" "host";
      m "backend.readback_s" "s" "host";
      m "trace.spans_per_op" "1/op" "count";
      m "trace.host_kops_ratio" "ratio" "host";
    ]

(* -- statistics ----------------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

open Workloads

let host_kops (t : trial) = float_of_int t.ops /. (t.host_s *. 1000.0)

(* The simulated facts of a trial's measured phase: equal inputs must
   give equal facts, traced or not. *)
let facts (t : trial) =
  ("ops", float_of_int t.ops)
  :: ("sim_ns", float_of_int t.sim_ns)
  :: ("lat_sum_us", Array.fold_left ( +. ) 0.0 t.lats_us)
  :: List.filter
       (fun (n, _) -> not (String.length n > 5 && String.sub n 0 5 = "attr."))
       t.counters

(* Mean latency of the slowest 5% of ops (at least one op). *)
let tail_mean a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let k = max 1 (n / 20) in
  Array.fold_left ( +. ) 0.0 (Array.sub s (n - k) k) /. float_of_int k

let end_to_end_values ~untraced =
  let first = List.hd untraced in
  let per_trial f = median (List.map f untraced) in
  [
    ("setup_s", per_trial (fun t -> t.setup_s));
    (* The slowest trial: on a shared host the same trial runs up to 2x
       faster in bursts, and the slowest trial of a run tracks the host's
       steady speed better than the median does. *)
    ("host_kops", List.fold_left (fun a t -> Float.min a (host_kops t)) infinity untraced);
    ("alloc_words_per_op", per_trial (fun t -> t.words /. float_of_int (max 1 t.ops)));
    ("peak_rss_mb", first.peak_rss_mb);
    ("sim_kops", float_of_int first.ops /. (float_of_int (max 1 first.sim_ns) /. 1e6));
    ("sim_mean_us", Asym_util.Stats.mean first.lats_us);
    ("sim_tail_us", tail_mean first.lats_us);
    ("sim_p50_us", percentile first.lats_us 50.0);
    ("sim_p99_us", percentile first.lats_us 99.0);
  ]

let per_layer_values ~untraced ~traced =
  let all = untraced @ traced in
  let first_traced = List.hd traced in
  let names l = List.sort_uniq compare (List.concat_map (fun t -> List.map fst t.host_layer) l) in
  let host_medians =
    List.map
      (fun n ->
        (n, median (List.filter_map (fun t -> List.assoc_opt n t.host_layer) all)))
      (names all)
  in
  let per_kop f =
    median (List.map (fun t -> float_of_int (f t) *. 1000.0 /. float_of_int (max 1 t.ops)) untraced)
  in
  let got =
    [
      ("harness.rig_create_s", median (List.map (fun t -> t.rig_s) all));
      ("structs.preload_s", median (List.map (fun t -> t.preload_s) all));
      ("gc.minor_per_kop", per_kop (fun t -> t.minor));
      ("gc.major_per_kop", per_kop (fun t -> t.major));
      ( "trace.host_kops_ratio",
        median (List.map host_kops traced) /. median (List.map host_kops untraced) );
    ]
    @ first_traced.counters @ host_medians
  in
  List.map (fun mt -> (mt.name, Option.value ~default:0.0 (List.assoc_opt mt.name got))) per_layer

(* -- output --------------------------------------------------------------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metrics ~workload catalog values =
  List.iter
    (fun mt ->
      let v = List.assoc mt.name values in
      Printf.printf "%-14s %-38s %16.6g %-9s [%s]\n" workload mt.name v mt.unit_ mt.clock)
    catalog

let json_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (mt, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.name (num v) mt.unit_)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body
