(* The repository benchmark.

     bench.exe --workload bpt-write|bpt-read-zipf|bst-shared|all
               --seed N --seconds S --trace 0|1

   Prints every metric by name, unit and clock, then one JSON result
   line: end-to-end metrics with --trace 0, per-layer metrics with
   --trace 1 (whose text output also lists the end-to-end figures of its
   untraced trials and the tracing overhead). A traced run writes the
   first 200k spans of its first traced trial to
   _perfbench/spans-WORKLOAD.tsv.

     bench.exe --known-defects [--seed N]

   Runs the known-defect probes ({!Workloads.probe}) and exits 1 while
   any of them still fails its correctness checks. See README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME|all --seed N --seconds S --trace 0|1\n\
    \       bench.exe --known-defects [--seed N]\n\
     workloads: bpt-write bpt-read-zipf bst-shared";
  exit 2

let known_defects seed =
  let reproduced =
    List.filter_map
      (fun w ->
        Option.map
          (fun size ->
            let o = Trials.run w ~size ~seed ~seconds:0.0 ~traced:false in
            let name = Workloads.to_string w in
            Printf.printf "%s probe: attempted=%d failed=%d\n" name o.attempted o.failed;
            List.iter
              (fun (t : Workloads.trial) -> List.iter (Printf.printf "  %s\n") t.notes)
              o.untraced;
            o.failed > 0)
          (Workloads.probe w))
      Workloads.all
  in
  let n = List.length (List.filter Fun.id reproduced) in
  Printf.printf "%d of %d known defects reproduced\n" n (List.length reproduced);
  exit (if n > 0 then 1 else 0)

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [ "--known-defects" ] -> known_defects 1L
  | [ "--known-defects"; "--seed"; v ] -> (
      match Int64.of_string_opt v with Some s -> known_defects s | None -> usage ())
  | _ -> ());
  let workload = ref None and seed = ref None and seconds = ref 10.0 and traced = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (workload :=
           if v = "all" then Some Workloads.all
           else match Workloads.of_string v with Some w -> Some [ w ] | None -> usage ());
        parse rest
    | "--seed" :: v :: rest ->
        (seed := match Int64.of_string_opt v with Some s -> Some s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (seconds := match float_of_string_opt v with Some s when s >= 0.0 -> s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (traced := match v with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workloads, seed = match (!workload, !seed) with Some w, Some s -> (w, s) | _ -> usage () in
  let traced = !traced in
  let results =
    List.map
      (fun w ->
        let name = Workloads.to_string w in
        if traced then begin
          if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
          Trace.dump_to := Some (Filename.concat "_perfbench" ("spans-" ^ name ^ ".tsv"))
        end;
        let o = Trials.run w ~size:(Workloads.full w) ~seed ~seconds:!seconds ~traced in
        let e2e = Report.end_to_end_values ~untraced:o.untraced in
        let first = List.hd o.untraced in
        Printf.printf
          "# %s seed=%Ld trials=%d%s ops/trial=%d latency samples=%d attempted=%d failed=%d \
           deterministic=%b\n"
          name seed (List.length o.untraced)
          (if traced then Printf.sprintf "+%d traced" (List.length o.traced) else "")
          first.ops (Array.length first.lats_us) o.attempted o.failed o.deterministic;
        List.iter
          (fun (t : Workloads.trial) ->
            Printf.printf "# %s trial: host_kops=%.3f setup_s=%.3f\n" name (Report.host_kops t)
              t.setup_s)
          o.untraced;
        List.iter
          (fun (t : Workloads.trial) -> List.iter (Printf.printf "# %s: %s\n" name) t.notes)
          (o.untraced @ o.traced);
        Report.print_metrics ~workload:name (Report.end_to_end @ Report.quantiles) e2e;
        Printf.printf "%-14s %-38s %16.6g %-9s [%s]\n" name "failed_frac"
          (float_of_int o.failed /. float_of_int (max 1 o.attempted))
          "ratio" "count";
        let values =
          if traced then begin
            let layer = Report.per_layer_values ~untraced:o.untraced ~traced:o.traced in
            Report.print_metrics ~workload:name Report.per_layer layer;
            List.map (fun mt -> (mt, List.assoc mt.Report.name layer)) Report.per_layer
          end
          else List.map (fun mt -> (mt, List.assoc mt.Report.name e2e)) Report.end_to_end
        in
        (name, o, values))
      workloads
  in
  let outcomes = List.map (fun (_, (o : Trials.outcome), _) -> o) results in
  let correct =
    List.for_all (fun (o : Trials.outcome) -> o.failed = 0 && o.deterministic) outcomes
  in
  let attempted = List.fold_left (fun a (o : Trials.outcome) -> a + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun a (o : Trials.outcome) -> a + o.failed) 0 outcomes in
  let metrics =
    match results with
    | [ (_, _, values) ] -> values
    | _ ->
        List.concat_map
          (fun (name, _, values) ->
            List.map
              (fun (mt, v) -> ({ mt with Report.name = name ^ "/" ^ mt.Report.name }, v))
              values)
          results
  in
  print_endline (Report.json_line ~correct ~attempted ~failed metrics)
