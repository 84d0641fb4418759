(* Tier-1 suite for lib/check: the crash-point explorer, the reference
   models, and the fault fuzzer, on a bounded op budget so `dune runtest`
   stays fast. The full exhaustive sweep is `make crashsweep`. *)

open Asym_core
module Check = Asym_check
module Model = Check.Model
module Catalogue = Asym_structs.Catalogue
module Explorer = Check.Explorer
module Fuzz = Check.Fuzz

let check = Alcotest.check

(* ---------------- reference models ---------------- *)

let test_model_map_semantics () =
  let m = Model.empty Catalogue.Map in
  let m = Model.apply m (Model.Put (5L, Bytes.of_string "a")) in
  let m = Model.apply m (Model.Put (1L, Bytes.of_string "b")) in
  let m = Model.apply m (Model.Put (5L, Bytes.of_string "c")) in
  let m = Model.apply m (Model.Delete 9L) in
  check
    Alcotest.(list (pair int64 string))
    "sorted, updated, delete of absent key ignored"
    [ (1L, "b"); (5L, "c") ]
    (List.map (fun (k, v) -> (k, Bytes.to_string v)) (Model.dump m))

let test_model_seq_semantics () =
  let strings m = List.map (fun (_, v) -> Bytes.to_string v) (Model.dump m) in
  let l =
    List.fold_left Model.apply (Model.empty Catalogue.Lifo)
      [ Model.Push (Bytes.of_string "a"); Model.Push (Bytes.of_string "b"); Model.Pop ]
  in
  check Alcotest.(list string) "lifo pops the newest" [ "a" ] (strings l);
  let f =
    List.fold_left Model.apply (Model.empty Catalogue.Fifo)
      [ Model.Push (Bytes.of_string "a"); Model.Push (Bytes.of_string "b"); Model.Pop ]
  in
  check Alcotest.(list string) "fifo pops the oldest" [ "b" ] (strings f);
  check Alcotest.(list string) "pop on empty is a no-op" []
    (strings (Model.apply (Model.empty Catalogue.Lifo) Model.Pop))

let test_model_generate_deterministic () =
  let a = Model.generate ~kind:`Map ~ops:40 ~seed:7L in
  let b = Model.generate ~kind:`Map ~ops:40 ~seed:7L in
  check Alcotest.bool "same seed, same schedule" true (a = b);
  let c = Model.generate ~kind:`Map ~ops:40 ~seed:8L in
  check Alcotest.bool "different seed, different schedule" false (a = c)

(* Satellite 1: every registered structure, driven crash-free through a
   fixed-seed schedule, must agree with its reference model. *)
let test_matches_model kind () =
  let opl = Explorer.schedule kind ~ops:60 ~seed:42L in
  let bk =
    Backend.create ~name:"bk" ~max_sessions:4 ~memlog_cap:(512 * 1024) ~oplog_cap:(256 * 1024)
      ~slab_size:4096
      ~capacity:(16 * 1024 * 1024)
      Asym_sim.Latency.default
  in
  let fe =
    Client.connect ~name:"fe"
      (Client.rcb ~batch_size:8 ())
      bk
      ~clock:(Asym_sim.Clock.create ~name:"fe" ())
  in
  let inst = Explorer.attach kind fe ~name:"chk" in
  let model = List.fold_left Model.apply (Explorer.model0 kind) opl in
  List.iter (Model.exec inst) opl;
  Client.flush fe;
  check Alcotest.bool
    (Catalogue.id kind ^ " dump = model after 60 ops")
    true
    (inst.Catalogue.dump () = Model.dump model)

(* One schedule through the catalogue on both stores: the AsymNVM
   front-end and the symmetric baseline must end in the same state, and
   that state must be the reference model's. *)
module On_local = Catalogue.Make (Asym_baseline.Local_store)

let test_stores_agree kind () =
  let opl = Explorer.schedule kind ~ops:200 ~seed:17L in
  let run (inst : Catalogue.instance) =
    List.iter (Model.exec inst) opl;
    inst.cleanup ();
    inst.dump ()
  in
  let fe =
    Client.connect ~name:"fe" (Client.rcb ~batch_size:8 ())
      (Backend.create ~name:"bk" ~max_sessions:4 ~memlog_cap:(512 * 1024)
         ~oplog_cap:(256 * 1024) ~slab_size:4096 ~capacity:(16 * 1024 * 1024)
         Asym_sim.Latency.default)
      ~clock:(Asym_sim.Clock.create ~name:"fe" ())
  in
  let local =
    Asym_baseline.Local_store.create Asym_sim.Latency.default
      ~clock:(Asym_sim.Clock.create ~name:"sym" ())
  in
  let on_client = run (Explorer.attach kind fe ~name:"d") in
  let on_local =
    run
      (On_local.attach kind ~opts:Asym_structs.Ds_intf.default_options ~nbuckets:64
         ~skip_seed:77L local ~name:"d")
  in
  let model = Model.dump (List.fold_left Model.apply (Explorer.model0 kind) opl) in
  let entries = Alcotest.(list (pair int64 string)) in
  let strings = List.map (fun (k, v) -> (k, Bytes.to_string v)) in
  check entries "client = model" (strings model) (strings on_client);
  check entries "local store = model" (strings model) (strings on_local)

(* ---------------- crash-point census ---------------- *)

let test_census_deterministic () =
  let s = Catalogue.Bst in
  let o1 = Explorer.sweep ~stride:1000 s ~ops:15 ~seed:3L in
  let o2 = Explorer.sweep ~stride:1000 s ~ops:15 ~seed:3L in
  check Alcotest.int "same schedule, same census" o1.Explorer.boundaries o2.Explorer.boundaries;
  check Alcotest.bool "census is non-trivial" true (o1.Explorer.boundaries > 15)

let test_census_sites_gated () =
  (* Only client-initiated verbs count: every site label carries the
     rdma.* context prefix, never a bare backend-local device write. *)
  let s = Catalogue.Mv_bst in
  let o = Explorer.sweep ~stride:1000 s ~ops:12 ~seed:1L in
  check Alcotest.bool "has sites" true (o.Explorer.sites <> []);
  List.iter
    (fun (site, _) ->
      check Alcotest.bool (site ^ " is client-initiated") true
        (String.length site >= 5 && String.sub site 0 5 = "rdma."))
    o.Explorer.sites;
  check Alcotest.bool "mv structures expose CAS boundaries" true
    (List.exists (fun (site, _) -> site = "rdma.cas/nvm.cas") o.Explorer.sites)

(* ---------------- the sweep (tentpole acceptance) ---------------- *)

(* One structure exhaustively at every crash point... *)
let test_sweep_exhaustive_pbst () =
  let s = Catalogue.Bst in
  let o = Explorer.sweep s ~ops:25 ~seed:1L in
  check Alcotest.int
    (Fmt.str "pbst exhaustive: %a" Explorer.pp_outcome o)
    0
    (List.length o.Explorer.failures)

(* ...and all eight on a bounded budget (sampled points + torn variants). *)
let test_sweep_all_structures s () =
  let o = Explorer.sweep ~stride:3 s ~ops:10 ~seed:2L in
  check Alcotest.int
    (Fmt.str "%a" Explorer.pp_outcome o)
    0
    (List.length o.Explorer.failures);
  check Alcotest.bool "ran at least one point" true (o.Explorer.points_run > 0)

let test_run_point_roundtrip () =
  let s = Catalogue.Queue in
  let o = Explorer.sweep ~stride:4 s ~ops:12 ~seed:5L in
  check Alcotest.int "sweep clean" 0 (List.length o.Explorer.failures);
  (* Reproducer mode re-runs single points and agrees with the sweep. *)
  check Alcotest.bool "point 1 clean" true
    (Explorer.run_point s ~ops:12 ~seed:5L ~point:1 ~tear:false = None);
  check Alcotest.bool "point 2 torn clean" true
    (Explorer.run_point s ~ops:12 ~seed:5L ~point:2 ~tear:true = None)

(* The checker itself must be falsifiable: disable op-log checksum
   validation and the torn-write sweep has to catch the resulting
   corrupt replay. A sweep that cannot fail checks nothing. *)
let test_sweep_catches_broken_recovery () =
  Fun.protect
    ~finally:(fun () -> Log.crc_check := true)
    (fun () ->
      Log.crc_check := false;
      let s = Catalogue.Stack in
      let o = Explorer.sweep s ~ops:15 ~seed:1L in
      check Alcotest.bool
        (Fmt.str "disabled CRC must surface failures: %a" Explorer.pp_outcome o)
        true
        (o.Explorer.failures <> []);
      (* Every failure names a torn run — the clean variants stay green. *)
      List.iter
        (fun f -> check Alcotest.bool "failure is a torn variant" true (f.Explorer.torn <> None))
        o.Explorer.failures)

(* ---------------- fuzzer ---------------- *)

let test_fuzz_multi_client s () =
  let o = Fuzz.run ~clients:2 s ~steps:120 ~seed:11L in
  check
    Alcotest.(list string)
    (Fmt.str "%a" Fuzz.pp_outcome o)
    [] o.Fuzz.failures;
  check Alcotest.bool "applied ops" true (o.Fuzz.ops_applied > 0);
  check Alcotest.bool "validated" true (o.Fuzz.validations > 0)

let test_fuzz_exercises_faults () =
  let s = Catalogue.Hash_table in
  let o = Fuzz.run ~clients:2 s ~steps:200 ~seed:1L in
  check Alcotest.(list string) (Fmt.str "%a" Fuzz.pp_outcome o) [] o.Fuzz.failures;
  check Alcotest.bool "client crashes happened" true (o.Fuzz.client_crashes > 0);
  check Alcotest.bool "backend restarts happened" true (o.Fuzz.backend_restarts > 0);
  check Alcotest.bool "a promotion or mirror crash happened" true
    (o.Fuzz.promotions + o.Fuzz.mirror_crashes > 0)

let test_fuzz_deterministic () =
  let s = Catalogue.Stack in
  let a = Fuzz.run s ~steps:80 ~seed:9L and b = Fuzz.run s ~steps:80 ~seed:9L in
  check Alcotest.int "same ops" a.Fuzz.ops_applied b.Fuzz.ops_applied;
  check Alcotest.int "same promotions" a.Fuzz.promotions b.Fuzz.promotions;
  check Alcotest.(list string) "same failures" a.Fuzz.failures b.Fuzz.failures

let per_kind f =
  List.map (fun k -> Alcotest.test_case (Catalogue.id k) `Quick (f k)) Catalogue.all

let () =
  Alcotest.run "check"
    [
      ( "model",
        [
          Alcotest.test_case "map semantics" `Quick test_model_map_semantics;
          Alcotest.test_case "sequence semantics" `Quick test_model_seq_semantics;
          Alcotest.test_case "deterministic schedules" `Quick test_model_generate_deterministic;
        ] );
      ("subject vs model", per_kind (fun s -> test_matches_model s));
      ("client vs local", per_kind test_stores_agree);
      ( "census",
        [
          Alcotest.test_case "deterministic" `Quick test_census_deterministic;
          Alcotest.test_case "client-initiated sites only" `Quick test_census_sites_gated;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "pbst exhaustive" `Quick test_sweep_exhaustive_pbst;
          Alcotest.test_case "single-point reproducer" `Quick test_run_point_roundtrip;
          Alcotest.test_case "catches disabled CRC validation" `Quick
            test_sweep_catches_broken_recovery;
        ] );
      ("sweep all structures", per_kind (fun s -> test_sweep_all_structures s));
      ( "fuzz",
        [
          Alcotest.test_case "faults exercised, no failures" `Quick test_fuzz_exercises_faults;
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
        ] );
      ("fuzz all structures", per_kind (fun s -> test_fuzz_multi_client s));
    ]
