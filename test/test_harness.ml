(* Smoke tests of the experiment harness: tiny versions of each runner
   must produce positive, sane throughput and respect the expected
   orderings (the full-size runs live in bench/main.exe). *)

open Asym_harness
module Catalogue = Asym_structs.Catalogue

let check = Alcotest.check
let lat = Asym_sim.Latency.default
let tiny = { Experiments.preload = 400; ops = 400; subscribers = 50; accounts = 100 }

let run_cell ?put_ratio cfg kind =
  (Runner.run_asym ?put_ratio ~rig:(Runner.make_rig lat) ~cfg ~kind ~preload:tiny.Experiments.preload
     ~ops:tiny.Experiments.ops ())
    .Runner.kops

let test_all_ds_all_configs_positive () =
  List.iter
    (fun kind ->
      List.iter
        (fun cfg ->
          let kops = run_cell cfg kind in
          if kops <= 0.0 then
            Alcotest.failf "%s/%s: non-positive throughput" (Catalogue.label kind)
              (Asym_core.Client.config_name cfg))
        [ Asym_core.Client.naive (); Asym_core.Client.r (); Asym_core.Client.rcb () ])
    Catalogue.all

let test_sym_all_ds_positive () =
  List.iter
    (fun kind ->
      let r =
        Runner.run_sym ~lat ~cfg:Asym_baseline.Local_store.symmetric ~kind
          ~preload:tiny.Experiments.preload ~ops:tiny.Experiments.ops ()
      in
      if r.Runner.kops <= 0.0 then Alcotest.failf "%s: non-positive" (Catalogue.label kind))
    Catalogue.all

let test_rcb_beats_naive () =
  List.iter
    (fun kind ->
      let naive = run_cell (Asym_core.Client.naive ()) kind in
      let rcb = run_cell (Asym_core.Client.rcb ()) kind in
      if rcb <= naive then
        Alcotest.failf "%s: RCB (%.1f) not faster than naive (%.1f)" (Catalogue.label kind) rcb
          naive)
    Catalogue.[ Queue; Hash_table; Bpt; Mv_bpt ]

let test_read_heavy_faster_than_write_heavy () =
  let w = run_cell ~put_ratio:1.0 (Asym_core.Client.rc ()) Catalogue.Hash_table in
  let r = run_cell ~put_ratio:0.0 (Asym_core.Client.rc ()) Catalogue.Hash_table in
  check Alcotest.bool "reads cheaper" true (r > w)

let test_trace_runner () =
  let r =
    Runner.run_asym ~mix:Runner.Trace ~put_ratio:0.5 ~rig:(Runner.make_rig lat)
      ~cfg:(Asym_core.Client.rc ()) ~kind:Catalogue.Hash_table ~preload:200 ~ops:200 ()
  in
  check Alcotest.bool "positive" true (r.Runner.kops > 0.0);
  check Alcotest.bool "cache counters reported" true
    (r.Runner.cache_hits + r.Runner.cache_misses > 0)

let test_fig8_point () =
  let p = Multiclient.fig8_point ~kind:Catalogue.Bst ~readers:2 ~preload:300 ~duration:(Asym_sim.Simtime.ms 3) in
  check Alcotest.bool "reader tput positive" true (p.Multiclient.reader_avg_kops > 0.0);
  check Alcotest.bool "writer tput positive" true (p.Multiclient.writer_kops > 0.0)

let test_fig9_scales () =
  let one = Multiclient.fig9_point ~kind:Catalogue.Bpt ~n:1 ~preload:300 ~duration:(Asym_sim.Simtime.ms 3) in
  let three = Multiclient.fig9_point ~kind:Catalogue.Bpt ~n:3 ~preload:300 ~duration:(Asym_sim.Simtime.ms 3) in
  check Alcotest.bool "3 clients beat 1" true (three > 1.5 *. one)

let test_fig10_point () =
  let k = Multiclient.fig10_point ~kind:Catalogue.Bpt ~backends:2 ~preload:300 ~ops:300 in
  check Alcotest.bool "partitioned positive" true (k > 0.0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_rendering () =
  let t = Report.create ~title:"t" ~header:[ "a"; "bb" ] ~notes:[ "n" ] () in
  Report.add_row t [ "1"; "2" ];
  Report.add_row t [ "333" ];
  let s = Format.asprintf "%a" Report.render t in
  check Alcotest.bool "title" true (contains s "== t ==");
  check Alcotest.bool "note" true (contains s "note: n");
  check Alcotest.bool "short row padded" true (contains s "333")

(* -- Bench_json.diff ------------------------------------------------------------ *)

let report rows =
  let t = Report.create ~title:"t" ~header:[ "Benchmark"; "KOPS"; "Speedup" ] () in
  List.iter (Report.add_row t) rows;
  t

let bench_doc ?(scale = "quick") ?(rows = [ [ "BPT"; "100.0"; "1.50x" ]; [ "BST"; "-"; "2.00x" ] ])
    ?(pass = true) () =
  Bench_json.doc ~scale
    ~experiments:[ ("table3", report rows) ]
    ~checks:[ { Bench_json.experiment = "table3"; cname = "shape"; pass; detail = "d" } ]

let diff_count ?tolerance old_doc new_doc =
  List.length (Bench_json.diff ?tolerance ~old_doc ~new_doc ())

let test_diff_within_tolerance () =
  let drifted = bench_doc ~rows:[ [ "BPT"; "101.0"; "1.52x" ]; [ "BST"; "-"; "2.00x" ] ] () in
  check Alcotest.int "identical documents agree" 0 (diff_count (bench_doc ()) (bench_doc ()));
  check Alcotest.int "1% drift passes at 2%" 0 (diff_count (bench_doc ()) drifted)

let test_diff_beyond_tolerance () =
  let drifted = bench_doc ~rows:[ [ "BPT"; "103.0"; "1.50x" ]; [ "BST"; "-"; "2.00x" ] ] () in
  check Alcotest.int "3% drift fails at 2%" 1 (diff_count (bench_doc ()) drifted);
  check Alcotest.int "3% drift passes at 5%" 0 (diff_count ~tolerance:0.05 (bench_doc ()) drifted)

let test_diff_non_numeric () =
  let dash_filled = bench_doc ~rows:[ [ "BPT"; "100.0"; "1.50x" ]; [ "BST"; "9.0"; "2.00x" ] ] () in
  let relabelled =
    bench_doc ~rows:[ [ "BPT"; "100.0"; "1.50x" ]; [ "SkipList"; "-"; "2.00x" ] ] ()
  in
  check Alcotest.int "a dash turned number fails" 1 (diff_count (bench_doc ()) dash_filled);
  check Alcotest.int "a changed label fails" 1 (diff_count (bench_doc ()) relabelled)

let test_diff_structure () =
  let fewer = bench_doc ~rows:[ [ "BPT"; "100.0"; "1.50x" ] ] () in
  let empty = Bench_json.doc ~scale:"quick" ~experiments:[] ~checks:[] in
  check Alcotest.int "row count change fails" 1 (diff_count (bench_doc ()) fewer);
  check Alcotest.bool "missing experiment fails" true
    (List.exists
       (fun f -> contains f "experiment missing")
       (Bench_json.diff ~old_doc:(bench_doc ()) ~new_doc:empty ()));
  check Alcotest.int "scale mismatch fails" 1
    (diff_count (bench_doc ()) (bench_doc ~scale:"full" ()))

let test_diff_verdict_flip () =
  let failing = bench_doc ~pass:false () in
  check Alcotest.int "pass -> FAIL fails" 1 (diff_count (bench_doc ()) failing);
  check Alcotest.int "FAIL -> pass fails" 1 (diff_count failing (bench_doc ()))

(* -- typed verdict canaries ------------------------------------------------------ *)

(* Each verdict fed rows that break its expectation must fail and name
   the offending row; the unbroken rows must pass, so a canary cannot
   succeed by a verdict that always fails. *)

let verdict cname checks = List.find (fun c -> c.Bench_json.cname = cname) checks

let expect_pass cname checks =
  let c = verdict cname checks in
  if not c.Bench_json.pass then
    Alcotest.failf "%s failed on good rows: %s" cname c.Bench_json.detail

let expect_fail cname ~names checks =
  let c = verdict cname checks in
  check Alcotest.bool (cname ^ " fails") false c.Bench_json.pass;
  if not (contains c.Bench_json.detail names) then
    Alcotest.failf "%s detail %S does not name %S" cname c.Bench_json.detail names

let t3_row bench =
  {
    Experiments.bench;
    symmetric = Some 100.;
    symmetric_b = None;
    naive = Some 50.;
    r = Some 60.;
    rc = Some 80.;
    rcb = Some 120.;
  }

let t3_good = [ t3_row "BPT"; t3_row "HashTable"; t3_row "MV-BPT" ]

let with_row bench f = List.map (fun row -> if row.Experiments.bench = bench then f row else row)

let test_table3_canaries () =
  let checks = Experiments.table3_checks t3_good in
  List.iter
    (fun c -> expect_pass c checks)
    [ "r_at_least_naive"; "optimized_speedup"; "mv_crossover"; "rc_no_regression" ];
  expect_fail "optimized_speedup" ~names:"HashTable"
    (Experiments.table3_checks
       (with_row "HashTable"
          (fun row -> { row with Experiments.rc = Some 70.; rcb = None })
          t3_good));
  expect_fail "mv_crossover" ~names:"MV-BPT"
    (Experiments.table3_checks
       (with_row "MV-BPT" (fun row -> { row with Experiments.rcb = Some 99.9 }) t3_good));
  expect_fail "mv_crossover" ~names:"MV-BPT"
    (Experiments.table3_checks
       (List.filter (fun row -> row.Experiments.bench <> "MV-BPT") t3_good));
  expect_fail "r_at_least_naive" ~names:"BPT"
    (Experiments.table3_checks
       (with_row "BPT" (fun row -> { row with Experiments.r = Some 48. }) t3_good));
  expect_fail "rc_no_regression" ~names:"BPT"
    (Experiments.table3_checks
       (with_row "BPT" (fun row -> { row with Experiments.rc = Some 50. }) t3_good))

let test_latency_canary () =
  let row kind config mean_us =
    { Experiments.kind; config; mean_us; p50_us = mean_us; p99_us = mean_us }
  in
  let good =
    [
      row Catalogue.Hash_table "Naive" 10.;
      row Catalogue.Hash_table "RCB" 4.;
      row Catalogue.Bpt "Naive" 20.;
      row Catalogue.Bpt "RCB" 8.;
    ]
  in
  expect_pass "rcb_mean_latency" (Experiments.latency_checks good);
  expect_fail "rcb_mean_latency" ~names:(Catalogue.label Catalogue.Bpt)
    (Experiments.latency_checks
       (List.map
          (fun r ->
            if r.Experiments.kind = Catalogue.Bpt && r.Experiments.config = "RCB" then
              row Catalogue.Bpt "RCB" 20.
            else r)
          good))

let test_sensitivity_canary () =
  let row hardware naive_kops rcb_kops = { Experiments.hardware; naive_kops; rcb_kops } in
  let good = [ row "RDMA RTT 1 us" 50. 130.; row "NVM 1200/400 ns" 30. 90. ] in
  expect_pass "rcb_advantage" (Experiments.sensitivity_checks good);
  expect_fail "rcb_advantage" ~names:"NVM 1200/400 ns"
    (Experiments.sensitivity_checks [ row "RDMA RTT 1 us" 50. 130.; row "NVM 1200/400 ns" 30. 30. ])

let test_contention_canaries () =
  let point writers total_kops lock_wait_share =
    { Multiclient.writers; total_kops; lock_wait_share; avg_lock_wait_ns = 0. }
  in
  let good = [ point 1 50. 0.1; point 4 40. 0.3; point 8 30. 0.5 ] in
  let checks = Multiclient.contention_checks good in
  expect_pass "lock_wait_grows" checks;
  expect_pass "throughput_positive" checks;
  expect_fail "lock_wait_grows" ~names:"at 8"
    (Multiclient.contention_checks [ point 1 50. 0.5; point 4 40. 0.3; point 8 30. 0.5 ]);
  expect_fail "lock_wait_grows" ~names:"missing row"
    (Multiclient.contention_checks [ point 1 50. 0.1; point 4 40. 0.3 ]);
  expect_fail "throughput_positive" ~names:"at 4 writers"
    (Multiclient.contention_checks [ point 1 50. 0.1; point 4 0. 0.3; point 8 30. 0.5 ])

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "all ds x configs" `Slow test_all_ds_all_configs_positive;
          Alcotest.test_case "symmetric all ds" `Quick test_sym_all_ds_positive;
          Alcotest.test_case "rcb beats naive" `Slow test_rcb_beats_naive;
          Alcotest.test_case "read vs write" `Quick test_read_heavy_faster_than_write_heavy;
          Alcotest.test_case "trace runner" `Quick test_trace_runner;
        ] );
      ( "multiclient",
        [
          Alcotest.test_case "fig8 point" `Quick test_fig8_point;
          Alcotest.test_case "fig9 scaling" `Quick test_fig9_scales;
          Alcotest.test_case "fig10 point" `Quick test_fig10_point;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "bench_json diff",
        [
          Alcotest.test_case "drift within tolerance" `Quick test_diff_within_tolerance;
          Alcotest.test_case "drift beyond tolerance" `Quick test_diff_beyond_tolerance;
          Alcotest.test_case "non-numeric cell changed" `Quick test_diff_non_numeric;
          Alcotest.test_case "rows, experiments, scale" `Quick test_diff_structure;
          Alcotest.test_case "verdict flips" `Quick test_diff_verdict_flip;
        ] );
      ( "verdict canaries",
        [
          Alcotest.test_case "table3" `Quick test_table3_canaries;
          Alcotest.test_case "latency" `Quick test_latency_canary;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity_canary;
          Alcotest.test_case "contention" `Quick test_contention_canaries;
        ] );
    ]
