(* Self-checks of the benchmark, at a scaled-down size:
   - no correctness check of the oracle fails;
   - two runs with the same seed give identical simulated facts and
     identical op, check and failure counts;
   - a traced trial's simulated facts (sim time, latencies, counters)
     equal the untraced trial's exactly, so tracing cannot perturb
     simulated time. *)

open Perfbench

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let sim (t : Workloads.trial) =
  ( Report.facts t,
    Workloads.percentile t.Workloads.lats_us 50.0,
    Workloads.percentile t.Workloads.lats_us 99.0 )

let () =
  List.iter
    (fun w ->
      let name = Workloads.to_string w in
      let run () = Trials.run w ~size:(Workloads.small w) ~seed:11L ~seconds:0.0 ~traced:true in
      let a = run () and b = run () in
      let ua = List.hd a.untraced and ub = List.hd b.untraced in
      let ta = List.hd a.traced in
      expect (name ^ ": checks attempted") (a.attempted > 0);
      expect (name ^ ": no check failed") (a.failed = 0);
      expect (name ^ ": same seed, same counts")
        (a.attempted = b.attempted && a.failed = b.failed && ua.ops = ub.ops);
      expect (name ^ ": same seed, same simulated facts") (sim ua = sim ub);
      expect (name ^ ": traced = untraced simulated facts") (sim ta = sim ua);
      expect (name ^ ": trials agree") (a.deterministic && b.deterministic);
      expect (name ^ ": spans recorded")
        (List.assoc "structs.self_ns_per_op" ta.Workloads.host_layer > 0.0);
      Printf.printf "%s: ops=%d attempted=%d ok\n%!" name ua.ops a.attempted)
    Workloads.all;
  if !failures > 0 then exit 1
