(* The observability subsystem: span-ring behavior
   under nesting/crash/overflow, exporter well-formedness, and an
   end-to-end rig run asserting spans surface from every layer. *)

open Asym_obs

let check = Alcotest.check

(* Every test drives the global gate; leave the world clean regardless
   of outcome. *)
let with_obs f () =
  set_enabled true;
  reset ();
  Fun.protect f ~finally:(fun () ->
      reset ();
      set_enabled false)

(* -- span ring ------------------------------------------------------------- *)

let test_span_disabled () =
  set_enabled false;
  reset ();
  Span.complete ~track:"t" ~ts:0 ~dur:1 "s";
  Span.instant "i";
  check (Alcotest.list Alcotest.string) "no spans" []
    (List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()))

let test_span_nesting () =
  let t = ref 0 in
  let now () = !t in
  let out =
    Span.with_span ~track:"clk" ~now "outer" (fun () ->
        t := 10;
        let r =
          Span.with_span ~track:"clk" ~now "inner" (fun () ->
              t := 40;
              "ret")
        in
        check Alcotest.string "result threaded" "ret" r;
        t := 100)
  in
  check Alcotest.unit "unit body" () out;
  match Span.events () with
  | [ inner; outer ] ->
      (* Inner completes (and is recorded) first; both are X spans and the
         inner one lies within the outer. *)
      check Alcotest.string "inner first" "inner" inner.Span.name;
      check Alcotest.string "outer second" "outer" outer.Span.name;
      let range (e : Span.event) =
        match e.Span.kind with
        | Span.Complete d -> (e.Span.ts, e.Span.ts + d)
        | Span.Instant -> Alcotest.fail "expected complete span"
      in
      let i0, i1 = range inner and o0, o1 = range outer in
      check Alcotest.bool "nested" true (o0 <= i0 && i1 <= o1);
      check Alcotest.int "outer spans full interval" 100 (o1 - o0)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_span_balanced_on_crash () =
  let t = ref 0 in
  let now () = !t in
  (try
     Span.with_span ~track:"clk" ~now "doomed" (fun () ->
         t := 7;
         failwith "crash injection")
   with Failure _ -> ());
  match Span.events () with
  | [ e ] ->
      check Alcotest.string "span still recorded" "doomed" e.Span.name;
      check Alcotest.bool "duration up to the crash" true (e.Span.kind = Span.Complete 7)
  | l -> Alcotest.failf "expected exactly 1 event, got %d" (List.length l)

let test_span_ring_cap () =
  Span.set_capacity 4;
  Fun.protect ~finally:(fun () -> Span.set_capacity 65536) @@ fun () ->
  for i = 1 to 6 do
    Span.complete ~track:"t" ~ts:i ~dur:1 (Printf.sprintf "e%d" i)
  done;
  let names = List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()) in
  check (Alcotest.list Alcotest.string) "oldest evicted, order kept"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  check Alcotest.int "dropped counted" 2 (Span.dropped ())

(* -- Chrome exporter ------------------------------------------------------- *)

let test_chrome_export () =
  Span.complete ~cat:"rdma" ~track:"nic" ~ts:1000 ~dur:500 "rdma.write";
  Span.complete ~cat:"core" ~track:"fe" ~ts:0 ~dur:2000 "client.op";
  Span.instant ~cat:"fault" ~track:"fe" ~ts:1800 "client.crash";
  let doc = Json.parse (Export_chrome.to_string ()) in
  let evs = Json.to_list (Option.get (Json.member "traceEvents" doc)) in
  let ph e = Json.to_str (Option.get (Json.member "ph" e)) in
  let named n = List.find (fun e -> Json.member "name" e = Some (Json.String n)) evs in
  let x = named "rdma.write" in
  check Alcotest.string "complete span is X" "X" (ph x);
  check (Alcotest.float 1e-9) "ts in microseconds" 1.0
    (Json.to_float (Option.get (Json.member "ts" x)));
  check (Alcotest.float 1e-9) "dur in microseconds" 0.5
    (Json.to_float (Option.get (Json.member "dur" x)));
  check Alcotest.string "instant is i" "i" (ph (named "client.crash"));
  (* One thread_name metadata record per track, and tracks get distinct tids. *)
  let meta = List.filter (fun e -> ph e = "M") evs in
  check Alcotest.int "two tracks named" 2 (List.length meta);
  let tid e = Json.to_int (Option.get (Json.member "tid" e)) in
  check Alcotest.bool "tracks on distinct lanes" true (tid x <> tid (named "client.op"))

(* -- end-to-end: spans from every layer ------------------------------------ *)

module Bpt = Asym_structs.Pbptree.Make (Asym_core.Client)

let test_three_layers () =
  let open Asym_core in
  let lat = Asym_sim.Latency.default in
  let bk =
    Backend.create ~name:"bk" ~max_sessions:2 ~memlog_cap:(1024 * 1024)
      ~oplog_cap:(512 * 1024) ~capacity:(16 * 1024 * 1024) lat
  in
  let clock = Asym_sim.Clock.create ~name:"fe" () in
  let fe = Client.connect ~name:"fe" (Client.rcb ()) bk ~clock in
  let t = Bpt.attach fe ~name:"obs" in
  for i = 1 to 200 do
    Bpt.put t ~key:(Int64.of_int i) ~value:(Bytes.of_string (string_of_int i))
  done;
  Client.flush fe;
  Client.crash fe;
  ignore (Client.recover fe);
  let names = List.map (fun (e : Span.event) -> e.Span.name) (Span.events ()) in
  let has prefix =
    List.exists (fun n -> String.length n >= String.length prefix
                          && String.sub n 0 (String.length prefix) = prefix) names
  in
  check Alcotest.bool "rdma layer" true (has "rdma.");
  check Alcotest.bool "core layer" true (has "client.op");
  check Alcotest.bool "log layer" true (has "log.replay_tx");
  check Alcotest.bool "verbs counted" true (Client.rdma_ops fe > 0);
  (* The trace itself must be parseable. *)
  ignore (Json.parse (Export_chrome.to_string ()))

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "disabled is inert" `Quick (with_obs test_span_disabled);
          Alcotest.test_case "nesting" `Quick (with_obs test_span_nesting);
          Alcotest.test_case "balanced on crash" `Quick (with_obs test_span_balanced_on_crash);
          Alcotest.test_case "ring cap" `Quick (with_obs test_span_ring_cap);
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace_event" `Quick (with_obs test_chrome_export) ] );
      ( "end-to-end",
        [ Alcotest.test_case "three layers traced" `Quick (with_obs test_three_layers) ] );
    ]
