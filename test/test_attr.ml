(* Latency attribution: the conservation property (every virtual
   nanosecond carries exactly one cause tag, so per-cause sums equal
   elapsed virtual time — zero tolerance), the Timeline queue/service
   split, and the Attr sink's windowing primitives. *)

open Asym_obs
open Asym_sim
module Runner = Asym_harness.Runner
module Breakdown = Asym_harness.Breakdown
module Catalogue = Asym_structs.Catalogue

let check = Alcotest.check

let with_obs f () =
  set_enabled true;
  reset ();
  Fun.protect f ~finally:(fun () ->
      reset ();
      set_enabled false)

(* -- sink primitives -------------------------------------------------------- *)

let test_gate () =
  set_enabled false;
  reset ();
  Attr.charge Attr.Rdma_rtt 100;
  check Alcotest.int "gate off: charge is a no-op" 0 (Attr.total ());
  set_enabled true;
  Attr.charge Attr.Rdma_rtt 100;
  Attr.charge Attr.Nvm_media 0;
  Attr.charge Attr.Nvm_media (-5);
  check Alcotest.int "non-positive charges ignored" 100 (Attr.total ());
  check Alcotest.int "charged cause" 100 (Attr.get Attr.Rdma_rtt);
  check Alcotest.int "other causes untouched" 0 (Attr.get Attr.Nvm_media)

(* Cause names key table columns and benchmark metrics, so they must be
   distinct. *)
let test_names_roundtrip () =
  let names = List.map Attr.name Attr.all in
  check Alcotest.int "one name per cause" (List.length Attr.all)
    (List.length (List.sort_uniq compare names))

let test_since_reattribute () =
  Attr.charge Attr.Rdma_rtt 50;
  let mark = Attr.snapshot () in
  Attr.charge Attr.Rdma_rtt 20;
  Attr.charge Attr.Lock_wait 30;
  let delta = Attr.since mark in
  check Alcotest.int "since covers all nine causes" (List.length Attr.all)
    (List.length delta);
  check Alcotest.int "rtt delta" 20 (List.assoc Attr.Rdma_rtt delta);
  check Alcotest.int "lock delta" 30 (List.assoc Attr.Lock_wait delta);
  check Alcotest.int "untouched cause delta" 0 (List.assoc Attr.Nvm_media delta);
  (* Re-classify the window: total preserved, window moved to one cause. *)
  Attr.reattribute ~since:mark Attr.Read_retry;
  check Alcotest.int "total preserved" 100 (Attr.total ());
  check Alcotest.int "window now read_retry" 50 (Attr.get Attr.Read_retry);
  check Alcotest.int "pre-window rtt kept" 50 (Attr.get Attr.Rdma_rtt)

(* -- clock-level conservation ----------------------------------------------- *)

(* QCheck: any interleaving of tagged advances and wait_untils charges
   exactly the virtual time the clock moved through. *)
let prop_clock_conservation =
  let cause_gen =
    QCheck.Gen.oneofl Attr.all
  in
  let step_gen = QCheck.Gen.(pair cause_gen (int_range 0 5_000)) in
  let arb =
    QCheck.make
      ~print:(fun steps ->
        String.concat ";"
          (List.map (fun (c, d) -> Printf.sprintf "%s+%d" (Attr.name c) d) steps))
      QCheck.Gen.(list_size (int_range 1 200) step_gen)
  in
  QCheck.Test.make ~name:"clock charges == elapsed virtual time" ~count:100 arb
    (fun steps ->
      set_enabled true;
      reset ();
      Fun.protect
        ~finally:(fun () ->
          reset ();
          set_enabled false)
        (fun () ->
          let clk = Clock.create ~name:"prop" () in
          List.iteri
            (fun i (cause, d) ->
              if i mod 3 = 2 then Clock.wait_until ~cause clk (Clock.now clk + d)
              else Clock.advance ~cause clk d)
            steps;
          Attr.total () = Clock.now clk))

(* -- timeline queue/service split ------------------------------------------- *)

let test_timeline_contention () =
  let tl = Timeline.create ~name:"res" () in
  (* Five requests all arriving at t=0 for 100 ns each: request i waits
     i*100 then runs 100. *)
  let finishes =
    List.init 5 (fun _ ->
        let start = Timeline.acquire tl ~at:0 ~dur:100 in
        start + 100)
  in
  check (Alcotest.list Alcotest.int) "FIFO back-to-back grants"
    [ 100; 200; 300; 400; 500 ] finishes;
  check Alcotest.int "queued_total" 1000 (Timeline.queued_total tl);
  check Alcotest.int "busy_total" 500 (Timeline.busy_total tl);
  (* Per-request conservation: wait + service == completion - request,
     summed over all requests (every request was issued at t=0). *)
  check Alcotest.int "queue + service == sum of sojourn times"
    (List.fold_left (fun acc f -> acc + f) 0 finishes)
    (Timeline.queued_total tl + Timeline.busy_total tl)

let test_timeline_hold_release () =
  let tl = Timeline.create ~name:"mtx" () in
  let s0 = Timeline.hold tl ~at:0 in
  check Alcotest.int "uncontended hold starts immediately" 0 s0;
  Timeline.release tl ~at:50;
  let s1 = Timeline.hold tl ~at:20 in
  check Alcotest.int "contended hold waits for release" 50 s1;
  Timeline.release tl ~at:80;
  check Alcotest.int "hold queue time" 30 (Timeline.queued_total tl);
  check Alcotest.int "held service time" 80 (Timeline.busy_total tl)

(* -- whole-stack conservation ----------------------------------------------- *)

(* The acceptance property: a 1000-op BPT RCB run attributes every
   nanosecond of the measured window — per-cause sums equal elapsed
   virtual time with 0 ns tolerance. *)
let test_conservation_bpt_rcb () =
  let cell =
    Breakdown.run_cell ~put_ratio:0.5
      ~rig:(Runner.make_rig Latency.default)
      ~cfg:(Asym_core.Client.rcb ()) ~preload:1000 ~ops:1000 Catalogue.Bpt
  in
  check Alcotest.int "ops measured" 1000 cell.Breakdown.res.Runner.ops;
  check Alcotest.int "per-cause ns sum to elapsed (exact)"
    cell.Breakdown.res.Runner.elapsed (Breakdown.attr_total cell)

(* Same invariant across all eight structures (smaller runs), under the
   full RCB stack where every subsystem participates. *)
let test_conservation_all_structures () =
  List.iter
    (fun kind ->
      let put_ratio = if Catalogue.(family kind <> Map) then 1.0 else 0.5 in
      let cell =
        Breakdown.run_cell ~put_ratio
          ~rig:(Runner.make_rig Latency.default)
          ~cfg:(Asym_core.Client.rcb ()) ~preload:300 ~ops:300 kind
      in
      check Alcotest.int
        (Printf.sprintf "%s: attributed == elapsed" (Catalogue.label kind))
        cell.Breakdown.res.Runner.elapsed (Breakdown.attr_total cell))
    Catalogue.all

let () =
  Alcotest.run "attr"
    [
      ( "sink",
        [
          Alcotest.test_case "gate" `Quick test_gate;
          Alcotest.test_case "names round-trip" `Quick (with_obs (fun () -> test_names_roundtrip ()));
          Alcotest.test_case "since/reattribute" `Quick (with_obs (fun () -> test_since_reattribute ()));
        ] );
      ("clock", [ QCheck_alcotest.to_alcotest prop_clock_conservation ]);
      ( "timeline",
        [
          Alcotest.test_case "queue/service under contention" `Quick
            (with_obs (fun () -> test_timeline_contention ()));
          Alcotest.test_case "hold/release booking" `Quick
            (with_obs (fun () -> test_timeline_hold_release ()));
        ] );
      ( "conservation",
        [
          Alcotest.test_case "1000-op BPT RCB" `Quick test_conservation_bpt_rcb;
          Alcotest.test_case "all eight structures" `Quick test_conservation_all_structures;
        ] );
    ]
