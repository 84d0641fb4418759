open Asym_sim

let check = Alcotest.check

(* -- Simtime ----------------------------------------------------------- *)

let test_simtime_units () =
  check Alcotest.int "us" 5_000 (Simtime.us 5);
  check Alcotest.int "ms" 2_000_000 (Simtime.ms 2);
  check Alcotest.int "sec" 1_500_000_000 (Simtime.sec 1.5);
  check (Alcotest.float 1e-12) "to_sec" 0.002 (Simtime.to_sec (Simtime.ms 2));
  check (Alcotest.float 1e-12) "to_us" 3.0 (Simtime.to_us 3_000)

let test_simtime_pp () =
  let s t = Format.asprintf "%a" Simtime.pp t in
  check Alcotest.string "ns" "42ns" (s 42);
  check Alcotest.string "us" "1.500us" (s 1_500);
  check Alcotest.string "ms" "2.000ms" (s 2_000_000);
  check Alcotest.string "s" "3.000s" (s 3_000_000_000)

(* -- Latency ------------------------------------------------------------ *)

let test_latency_lines () =
  check Alcotest.int "0 -> 1 line" 1 (Latency.lines 0);
  check Alcotest.int "1 -> 1 line" 1 (Latency.lines 1);
  check Alcotest.int "64 -> 1 line" 1 (Latency.lines 64);
  check Alcotest.int "65 -> 2 lines" 2 (Latency.lines 65);
  check Alcotest.int "128 -> 2 lines" 2 (Latency.lines 128)

let test_latency_costs () =
  let l = Latency.default in
  check Alcotest.int "nvm read 64B" l.Latency.nvm_read_ns (Latency.nvm_read_cost l 64);
  check Alcotest.int "nvm write 128B" (2 * l.Latency.nvm_write_ns) (Latency.nvm_write_cost l 128);
  check Alcotest.bool "payload grows" true
    (Latency.rdma_payload_ns l 4096 > Latency.rdma_payload_ns l 64)

(* -- Clock -------------------------------------------------------------- *)

let test_clock_advance () =
  let c = Clock.create ~name:"c" () in
  Clock.advance c 100;
  Clock.advance c 50;
  check Alcotest.int "now" 150 (Clock.now c);
  check Alcotest.int "busy" 150 (Clock.busy c)

let test_clock_wait_idle () =
  let c = Clock.create () in
  Clock.advance c 100;
  Clock.wait_until c 500;
  check Alcotest.int "now jumped" 500 (Clock.now c);
  check Alcotest.int "busy unchanged" 100 (Clock.busy c);
  Clock.wait_until c 200;
  check Alcotest.int "no time travel" 500 (Clock.now c)

let test_clock_utilization () =
  let c = Clock.create () in
  Clock.advance c 100;
  Clock.wait_until c 400;
  check (Alcotest.float 1e-9) "25% busy" 0.25 (Clock.utilization c ~since:0 ~busy_since:0)

(* One verb's four parts land on their own causes and move the clock by
   their sum. *)
let test_clock_advance_verb () =
  let module Attr = Asym_obs.Attr in
  Asym_obs.set_enabled true;
  Asym_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Asym_obs.reset ();
      Asym_obs.set_enabled false)
    (fun () ->
      let c = Clock.create () in
      let mark = Attr.local_snapshot (Clock.attr c) in
      Clock.advance_verb c ~queue:3 ~rtt:1000 ~wire:40 ~media:200;
      check Alcotest.int "now" 1243 (Clock.now c);
      check Alcotest.int "busy" 1243 (Clock.busy c);
      let got = Attr.local_since (Clock.attr c) mark in
      List.iter
        (fun (cause, want) -> check Alcotest.int (Attr.name cause) want (List.assoc cause got))
        [
          (Attr.Nic_queue, 3);
          (Attr.Rdma_rtt, 1000);
          (Attr.Rdma_bytes, 40);
          (Attr.Nvm_media, 200);
          (Attr.Local_compute, 0);
        ])

(* -- Timeline ------------------------------------------------------------ *)

let test_timeline_fifo () =
  let tl = Timeline.create () in
  let s1 = Timeline.acquire tl ~at:0 ~dur:100 in
  let s2 = Timeline.acquire tl ~at:10 ~dur:100 in
  let s3 = Timeline.acquire tl ~at:500 ~dur:10 in
  check Alcotest.int "first starts immediately" 0 s1;
  check Alcotest.int "second queues" 100 s2;
  check Alcotest.int "idle gap respected" 500 s3;
  check Alcotest.int "busy total" 210 (Timeline.busy_total tl)

let test_timeline_backfills_gaps () =
  (* A request arriving (in execution order) after a later booking must
     use the idle gap before it, not queue behind it — this is what keeps
     independent clients from artificially serializing in the co-sim. *)
  let tl = Timeline.create () in
  let s1 = Timeline.acquire tl ~at:1000 ~dur:100 in
  check Alcotest.int "late booking placed" 1000 s1;
  let s2 = Timeline.acquire tl ~at:0 ~dur:100 in
  check Alcotest.int "earlier arrival backfills" 0 s2;
  let s3 = Timeline.acquire tl ~at:0 ~dur:1000 in
  check Alcotest.int "too big for the gap, goes after" 1100 s3

let test_timeline_gap_too_small () =
  let tl = Timeline.create () in
  ignore (Timeline.acquire tl ~at:100 ~dur:50);
  ignore (Timeline.acquire tl ~at:300 ~dur:50);
  (* Gaps: [0,100), [150,300), [350,inf). A 200-long request at 0 only
     fits at 350. *)
  check Alcotest.int "skips both small gaps" 350 (Timeline.acquire tl ~at:0 ~dur:200);
  (* A 100-long request at 0 fits the first gap. *)
  check Alcotest.int "first gap" 0 (Timeline.acquire tl ~at:0 ~dur:100)

let prop_timeline_no_overlap =
  QCheck.Test.make ~count:200 ~name:"timeline slots never overlap"
    QCheck.(small_list (pair (int_bound 5000) (int_range 1 200)))
    (fun reqs ->
      let tl = Timeline.create () in
      let slots = List.map (fun (at, dur) -> (Timeline.acquire tl ~at ~dur, dur)) reqs in
      let sorted = List.sort compare slots in
      let rec ok = function
        | (s1, d1) :: ((s2, _) :: _ as rest) -> s1 + d1 <= s2 && ok rest
        | _ -> true
      in
      ok sorted
      && List.for_all2 (fun (at, _) (start, _) -> start >= at) reqs slots)

let test_timeline_hold_release () =
  let tl = Timeline.create () in
  let s = Timeline.hold tl ~at:50 in
  check Alcotest.int "uncontended hold" 50 s;
  Timeline.release tl ~at:200;
  check Alcotest.int "held until release" 200 (Timeline.hold tl ~at:100);
  check Alcotest.int "free after release" 250 (Timeline.hold tl ~at:250)

(* -- Conflict ------------------------------------------------------------- *)

let test_conflict_overlap () =
  let c = Conflict.create () in
  Conflict.record c ~start_:100 ~stop:200;
  check Alcotest.bool "inside" true (Conflict.overlaps c ~start_:150 ~stop:160);
  check Alcotest.bool "straddles" true (Conflict.overlaps c ~start_:50 ~stop:150);
  check Alcotest.bool "before" false (Conflict.overlaps c ~start_:0 ~stop:100);
  check Alcotest.bool "after" false (Conflict.overlaps c ~start_:200 ~stop:300)

let test_conflict_ring_eviction_conservative () =
  let c = Conflict.create ~capacity:4 () in
  for i = 0 to 9 do
    Conflict.record c ~start_:(i * 100) ~stop:((i * 100) + 10)
  done;
  (* Windows 0..5 were evicted; queries reaching before the evicted
     horizon must conservatively report an overlap. *)
  check Alcotest.bool "old window conservative" true (Conflict.overlaps c ~start_:115 ~stop:118);
  check Alcotest.bool "recent non-overlap precise" false
    (Conflict.overlaps c ~start_:915 ~stop:920);
  check Alcotest.int "count" 10 (Conflict.count c)

(* QCheck: the early exit on the latest recorded stop and the eviction
   rule agree with a full scan of every window ever recorded — a
   recorded window that overlaps, or an evicted one that ends after the
   query starts, answers [true]. *)
let prop_conflict_matches_scan =
  let window = QCheck.Gen.(pair (int_range 0 400) (int_range 0 40)) in
  let arb =
    QCheck.make
      ~print:(fun (cap, ws, qs) ->
        let pr l = String.concat ";" (List.map (fun (a, d) -> Printf.sprintf "%d+%d" a d) l) in
        Printf.sprintf "cap=%d windows=[%s] queries=[%s]" cap (pr ws) (pr qs))
      QCheck.Gen.(
        triple (int_range 1 8) (list_size (int_range 0 30) window)
          (list_size (int_range 1 20) window))
  in
  QCheck.Test.make ~name:"overlaps agrees with a full scan" ~count:300 arb
    (fun (capacity, windows, queries) ->
      let c = Conflict.create ~capacity () in
      List.iter (fun (a, d) -> Conflict.record c ~start_:a ~stop:(a + d)) windows;
      let n = List.length windows in
      let reference ~start_ ~stop =
        List.exists
          (fun (i, (a, d)) ->
            if i < n - capacity then start_ < a + d else a < stop && start_ < a + d)
          (List.mapi (fun i w -> (i, w)) windows)
      in
      List.for_all
        (fun (a, d) ->
          Conflict.overlaps c ~start_:a ~stop:(a + d) = reference ~start_:a ~stop:(a + d))
        queries)

(* -- Sched ----------------------------------------------------------------- *)

let test_sched_interleaves_by_time () =
  let log = ref [] in
  let mk name cost n =
    let clk = Clock.create ~name () in
    let left = ref n in
    ( clk,
      Sched.client ~clock:clk ~run:(fun () ->
          while !left > 0 do
            decr left;
            log := (name, Clock.now clk) :: !log;
            Clock.advance clk cost
          done) )
  in
  let _, fast = mk "fast" 10 6 in
  let _, slow = mk "slow" 25 3 in
  Sched.run [ fast; slow ];
  let order = List.rev_map fst !log in
  (* With costs 10 vs 25 the fast client must run more often early on. *)
  check Alcotest.int "all steps ran" 9 (List.length order);
  check Alcotest.string "starts with one of each" "fast"
    (match order with a :: _ -> a | [] -> "none")

let test_sched_deadline () =
  let clk = Clock.create () in
  let steps = ref 0 in
  let c =
    Sched.client ~clock:clk ~run:(fun () ->
        while Clock.now clk < 1000 do
          incr steps;
          Clock.advance clk 100
        done)
  in
  Sched.run [ c ];
  check Alcotest.int "stopped at deadline" 10 !steps

let test_sched_makespan () =
  let a = Clock.create () and b = Clock.create () in
  Clock.advance a 100;
  Clock.advance b 250;
  check Alcotest.int "makespan" 250 (Sched.makespan [ a; b ])

(* QCheck: a client acts only while its (clock, id) is the earliest.
   Every client logs (now, id) after each step — zero-length advances,
   waits, and verb-style four-part charges included — so the log of all
   clients must be sorted by time, ties by id. *)
type step = Advance of int | Wait of int | Verb of int * int * int * int

let prop_sched_acts_only_while_earliest =
  let step =
    QCheck.Gen.(
      let d = int_range 0 3 in
      frequency
        [
          (3, map (fun x -> Advance x) d);
          (1, map (fun x -> Wait x) d);
          (2, map (fun (a, b, c, e) -> Verb (a, b, c, e)) (quad d d d d));
        ])
  in
  let client = QCheck.Gen.(pair (int_range 0 3) (list_size (int_range 0 25) step)) in
  let pp_step = function
    | Advance d -> Printf.sprintf "+%d" d
    | Wait d -> Printf.sprintf "w%d" d
    | Verb (a, b, c, e) -> Printf.sprintf "v%d.%d.%d.%d" a b c e
  in
  let arb =
    QCheck.make
      ~print:(fun cs ->
        String.concat " | "
          (List.map
             (fun (start, steps) ->
               Printf.sprintf "@%d %s" start (String.concat "," (List.map pp_step steps)))
             cs))
      QCheck.Gen.(list_size (int_range 2 6) client)
  in
  QCheck.Test.make ~name:"acts only while earliest" ~count:300 arb (fun cs ->
      let log = ref [] in
      let clients =
        List.mapi
          (fun id (start, steps) ->
            let clk = Clock.create () in
            Clock.wait_until clk start;
            Sched.client ~clock:clk ~run:(fun () ->
                List.iter
                  (fun st ->
                    (match st with
                    | Advance d -> Clock.advance clk d
                    | Wait d -> Clock.wait_until clk (Clock.now clk + d)
                    | Verb (queue, rtt, wire, media) ->
                        Clock.advance_verb clk ~queue ~rtt ~wire ~media);
                    log := (Clock.now clk, id) :: !log)
                  steps))
          cs
      in
      Sched.run clients;
      let rec sorted = function a :: (b :: _ as rest) -> a <= b && sorted rest | _ -> true in
      sorted (List.rev !log))

(* Count the suspensions of a client body: every [Clock.Yield] is
   counted, then re-performed to the scheduler's handler. *)
let counting_yields count body () =
  Effect.Deep.match_with body ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Clock.Yield _ ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  incr count;
                  Effect.perform e;
                  Effect.Deep.continue k ())
          | _ -> None);
    }

(* A client suspends only when another client is due: never when it runs
   alone or stays ahead, once per step when two clients move in
   lockstep. *)
let test_sched_lone_client_never_suspends () =
  let yields starts =
    let count = ref 0 in
    let clients =
      List.map
        (fun start ->
          let clk = Clock.create () in
          Clock.wait_until clk start;
          Sched.client ~clock:clk
            ~run:
              (counting_yields count (fun () ->
                   for _ = 1 to 50 do
                     Clock.advance clk 10
                   done)))
        starts
    in
    Sched.run clients;
    !count
  in
  check Alcotest.int "lone client" 0 (yields [ 0 ]);
  check Alcotest.int "other client far ahead" 0 (yields [ 0; 1000 ]);
  check Alcotest.int "two clients in lockstep" 100 (yields [ 0; 0 ])

let () =
  Alcotest.run "sim"
    [
      ( "simtime",
        [
          Alcotest.test_case "units" `Quick test_simtime_units;
          Alcotest.test_case "pretty printing" `Quick test_simtime_pp;
        ] );
      ( "latency",
        [
          Alcotest.test_case "line rounding" `Quick test_latency_lines;
          Alcotest.test_case "cost functions" `Quick test_latency_costs;
        ] );
      ( "clock",
        [
          Alcotest.test_case "advance" `Quick test_clock_advance;
          Alcotest.test_case "wait is idle" `Quick test_clock_wait_idle;
          Alcotest.test_case "utilization" `Quick test_clock_utilization;
          Alcotest.test_case "verb charges each cause" `Quick test_clock_advance_verb;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "fifo queueing" `Quick test_timeline_fifo;
          Alcotest.test_case "backfills idle gaps" `Quick test_timeline_backfills_gaps;
          Alcotest.test_case "gap too small" `Quick test_timeline_gap_too_small;
          Alcotest.test_case "hold/release" `Quick test_timeline_hold_release;
          QCheck_alcotest.to_alcotest prop_timeline_no_overlap;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "overlap detection" `Quick test_conflict_overlap;
          Alcotest.test_case "ring eviction conservative" `Quick
            test_conflict_ring_eviction_conservative;
          QCheck_alcotest.to_alcotest prop_conflict_matches_scan;
        ] );
      ( "sched",
        [
          Alcotest.test_case "virtual-time interleaving" `Quick test_sched_interleaves_by_time;
          Alcotest.test_case "deadline" `Quick test_sched_deadline;
          Alcotest.test_case "makespan" `Quick test_sched_makespan;
          QCheck_alcotest.to_alcotest prop_sched_acts_only_while_earliest;
          Alcotest.test_case "lone client never suspends" `Quick
            test_sched_lone_client_never_suspends;
        ] );
    ]
