(* Benchmark harness entry point.

   One subcommand per table/figure of the paper's evaluation (plus the
   in-text studies), each printing paper-style rows computed from the
   simulation's virtual time. `all` runs everything — the output compared
   against the paper lives in EXPERIMENTS.md.

   `--json FILE` additionally serializes every cell produced, plus
   EXPERIMENTS.md's shape expectations as pass/fail verdicts, into one
   asymnvm-bench/1 document (see DESIGN.md §6) — the input format of
   `asymnvm bench-diff`, gated in CI against bench/baseline.json. A run
   with a failing verdict exits 1, after writing that document. *)

open Cmdliner
open Asym_harness

type experiment = {
  name : string;
  doc : string;
  run : Experiments.scale -> (string * Report.t) list * Bench_json.check list;
      (** the named tables it prints, and its shape verdicts *)
}

(* Multi-client experiments run for a fixed span of virtual time. *)
let duration sc = Asym_sim.Simtime.ms (if sc = Experiments.full then 80 else 25)

(* [run] receives the experiment's own name, to label its tables. *)
let exp name doc run = { name; doc; run = run name }
let table f name sc = ([ (name, f sc) ], [])

let typed rows report checks name sc =
  let rows = rows sc in
  ([ (name, report rows) ], checks rows)

(* The CI bench gate: the cheap experiments whose cells and shape
   verdicts are committed as bench/baseline.json. *)
let smoke_table3 =
  exp "table3" "Table 3: overall performance, all configurations"
    Experiments.(typed table3 table3_report table3_checks)

let smoke_contention =
  exp "contention" "Lock-contention scaling: N writers racing for one shared structure"
    Experiments.(
      typed
        (fun sc -> Multiclient.contention ~preload:(sc.preload / 2) ~duration:(duration sc))
        Multiclient.contention_report Multiclient.contention_checks)

let smoke = [ smoke_table3; smoke_contention ]

let experiments =
  let open Experiments in
  [
    exp "table1" "Table 1: RDMA verbs and wire bytes per operation" (table table1);
    exp "table2" "Table 2: allocator comparison" (table table2);
    smoke_table3;
    exp "fig6" "Figure 6: throughput vs batch size" (table fig6);
    exp "fig7" "Figure 7: throughput vs cache size" (table fig7);
    exp "fig8" "Figure 8: reader scalability (SWMR)"
      (table (fun sc -> Multiclient.fig8 ~preload:sc.preload ~duration:(duration sc)));
    exp "fig9" "Figure 9: multiple structures per back-end"
      (table (fun sc -> Multiclient.fig9 ~preload:(sc.preload / 2) ~duration:(duration sc)));
    exp "fig10" "Figure 10: partitioning across back-ends"
      (table (fun sc -> Multiclient.fig10 ~preload:(sc.preload / 2) ~ops:(sc.ops / 2)));
    exp "fig11" "Figure 11: CPU utilization"
      (table (fun sc -> Multiclient.fig11 ~preload:sc.preload ~ops:(sc.ops * 2)));
    exp "fig12" "Figure 12: skewed (Zipf) workloads" (table fig12);
    exp "fig13" "Figure 13: industry-trace workload mixes" (table fig13);
    exp "cache_policy" "In-text §4.4: LRU vs RR vs hybrid replacement" (table cache_policy);
    exp "lock_bench" "In-text §6.3: lock ping-point test"
      (table (fun sc -> Multiclient.lock_bench ~duration:(duration sc)));
    smoke_contention;
    exp "ablation" "Ablations of DESIGN.md design choices" (table ablation);
    exp "sensitivity" "Extension: latency sensitivity of the optimization stack"
      (typed sensitivity sensitivity_report sensitivity_checks);
    exp "latency" "Extension: per-operation latency percentiles"
      (typed latency latency_report latency_checks);
    exp "ycsb" "Extension: YCSB core workloads A/B/C/D/F" (table ycsb);
    exp "breakdown" "Latency attribution: where each configuration's virtual time goes"
      (fun name sc ->
        let cells = Breakdown.default_cells ~preload:sc.preload ~ops:sc.ops () in
        ( [ (name, Breakdown.table cells); (name ^ "_resources", Breakdown.resource_table cells) ],
          Breakdown.checks cells ));
    exp "faultsweep" "Transient faults: throughput, retries and read-back integrity vs drop rate"
      (typed
         (fun sc -> Faultsweep.default_cells ~preload:(sc.preload / 2) ~ops:(sc.ops / 2) ())
         Faultsweep.table Faultsweep.checks);
    exp "bechamel" "Bechamel wall-clock micro-benchmarks" (fun _ _ ->
        Bechamel_micro.run ();
        ([], []));
  ]

let full_flag =
  let doc = "Run at full scale (paper-sized preloads and op counts); slower." in
  Arg.(value & flag & info [ "full" ] ~doc)

let json_arg =
  let doc =
    "Also write every produced cell and shape-check verdict to $(docv) as an \
     asymnvm-bench/1 JSON document (for `asymnvm bench-diff`)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let print_check (c : Bench_json.check) =
  Fmt.pr "  check %s/%s: %s — %s@." c.experiment c.cname (if c.pass then "PASS" else "FAIL")
    c.detail

let execute exps full json =
  let sc = if full then Experiments.full else Experiments.quick in
  let reports, checks =
    List.fold_left
      (fun (racc, cacc) e ->
        let reports, checks = e.run sc in
        List.iter (fun (_, r) -> Report.print r) reports;
        List.iter print_check checks;
        (racc @ reports, cacc @ checks))
      ([], []) exps
  in
  Option.iter
    (fun path ->
      Bench_json.write ~path
        (Bench_json.doc ~scale:(if full then "full" else "quick") ~experiments:reports ~checks);
      Fmt.pr "wrote %s (%d experiments, %d checks)@." path (List.length reports)
        (List.length checks))
    json;
  match List.filter (fun (c : Bench_json.check) -> not c.pass) checks with
  | [] -> ()
  | failed ->
      Fmt.epr "asymnvm-bench: %d shape check(s) failed@." (List.length failed);
      exit 1

let cmd name doc exps =
  Cmd.v (Cmd.info name ~doc) Term.(const (execute exps) $ full_flag $ json_arg)

let () =
  let every = Term.(const (execute experiments) $ full_flag $ json_arg) in
  let cmds =
    List.map (fun e -> cmd e.name e.doc [ e ]) experiments
    @ [
        cmd "smoke"
          (Printf.sprintf "CI bench gate: %s (the bench/baseline.json set)"
             (String.concat " + " (List.map (fun e -> e.name) smoke)))
          smoke;
        cmd "all" "Run every experiment (and the Bechamel micro-benchmarks)" experiments;
      ]
  in
  let info = Cmd.info "asymnvm-bench" ~doc:"Regenerate the paper's tables and figures" in
  exit (Cmd.eval (Cmd.group ~default:every info cmds))
