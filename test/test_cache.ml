(* Cache edge cases: the MRU-hit fast path (regression for the [!=]-on-
   boxed-option bug), Hybrid sampling, patches clipped by a short final
   page, and reuse after [clear]. *)

open Asym_core

let check = Alcotest.check
let mk ?(choose_set = 8) ?(cap_pages = 4) policy =
  Cache.create ~choose_set ~policy ~page_size:64
    ~capacity_bytes:(cap_pages * 64)
    (Asym_util.Rng.create ~seed:7L)

let page c = Bytes.make 64 c

let test_mru_hit_does_not_relink () =
  let t = mk Cache.Lru in
  Cache.insert t 0 (page 'a');
  Cache.insert t 1 (page 'b');
  (* Page 1 is MRU. Hitting it repeatedly must leave the recency list
     untouched — the buggy [t.mru != Some n] relinked on every hit. *)
  let before = Cache.relinks t in
  for _ = 1 to 10 do
    ignore (Cache.find t 1)
  done;
  check Alcotest.int "MRU hits do not relink" before (Cache.relinks t);
  (* A hit on a non-MRU page must relink (that is what keeps LRU LRU). *)
  ignore (Cache.find t 0);
  check Alcotest.int "non-MRU hit relinks" (before + 1) (Cache.relinks t);
  check Alcotest.int "all hits counted" 11 (Cache.hits t)

let test_mru_recency_still_correct () =
  (* After a run of MRU hits, eviction order must be unchanged: page 0 is
     still the LRU victim. *)
  let t = mk ~cap_pages:2 Cache.Lru in
  Cache.insert t 0 (page 'a');
  Cache.insert t 1 (page 'b');
  for _ = 1 to 5 do
    ignore (Cache.find t 1)
  done;
  Cache.insert t 2 (page 'c');
  check Alcotest.bool "LRU page 0 evicted" true (Cache.find t 0 = None);
  check Alcotest.bool "MRU page 1 kept" true (Cache.find t 1 <> None)

let test_hybrid_evicts_oldest_of_sample () =
  (* With choose_set >= population the sample is exhaustive, so Hybrid
     must behave exactly like LRU: the globally oldest page goes. *)
  let t = mk ~choose_set:64 ~cap_pages:4 Cache.Hybrid in
  for id = 0 to 3 do
    Cache.insert t id (page 'x')
  done;
  (* Touch 0 and 2; 1 is now the oldest untouched page. *)
  ignore (Cache.find t 0);
  ignore (Cache.find t 2);
  Cache.insert t 4 (page 'y');
  check Alcotest.bool "oldest-of-sample evicted" true (Cache.find t 1 = None);
  List.iter
    (fun id ->
      check Alcotest.bool (Printf.sprintf "page %d survives" id) true (Cache.find t id <> None))
    [ 0; 2; 3; 4 ]

let test_patch_spanning_short_final_page () =
  let t = mk Cache.Lru in
  (* Page 1 holds only 16 bytes (the structure's tail), page 0 is full. *)
  Cache.insert t 0 (page 'a');
  Cache.insert t 1 (Bytes.make 16 'b');
  (* A patch covering [60, 100) crosses into page 1 but extends past its
     short tail: only bytes [64, 80) of it may land. *)
  Cache.patch t ~addr:60 (Bytes.make 40 'Z');
  (match Cache.find t 0 with
  | Some p ->
      check Alcotest.string "page 0 tail patched" "aZZZZ" (Bytes.to_string (Bytes.sub p 59 5))
  | None -> Alcotest.fail "page 0 evicted");
  match Cache.find t 1 with
  | Some p ->
      check Alcotest.int "short page length preserved" 16 (Bytes.length p);
      check Alcotest.string "short page fully patched" (String.make 16 'Z') (Bytes.to_string p)
  | None -> Alcotest.fail "page 1 evicted"

let test_patch_entirely_past_short_page () =
  let t = mk Cache.Lru in
  Cache.insert t 0 (Bytes.make 8 'a');
  (* Addr 32 is inside page 0's range but past its 8 stored bytes: the
     patch must be a no-op, not an out-of-bounds blit. *)
  Cache.patch t ~addr:32 (Bytes.make 8 'Z');
  match Cache.find t 0 with
  | Some p -> check Alcotest.string "untouched" (String.make 8 'a') (Bytes.to_string p)
  | None -> Alcotest.fail "page evicted"

let test_clear_then_reuse () =
  let t = mk ~cap_pages:2 Cache.Hybrid in
  Cache.insert t 0 (page 'a');
  Cache.insert t 1 (page 'b');
  Cache.clear t;
  check Alcotest.int "empty" 0 (Cache.length t);
  check Alcotest.bool "gone" true (Cache.find t 0 = None);
  (* Refill past capacity: eviction and the dense sample array must work
     on the recycled structure. *)
  for id = 10 to 14 do
    Cache.insert t id (page 'c')
  done;
  check Alcotest.int "at capacity" 2 (Cache.length t);
  ignore (Cache.find t 14);
  Cache.insert t 20 (page 'd');
  check Alcotest.int "still at capacity" 2 (Cache.length t)

(* [clear] walks the live pages only, so it must still forget every page
   that survived eviction churn — for each policy — and leave a cache
   that fills back to capacity with fresh ids. *)
let test_clear_after_churn () =
  List.iter
    (fun policy ->
      let name = Cache.policy_name policy in
      let t = mk ~cap_pages:8 policy in
      for id = 0 to 99 do
        Cache.insert t (id * 7 mod 53) (page 'a');
        ignore (Cache.find t (id mod 11))
      done;
      check Alcotest.int (name ^ ": full before clear") 8 (Cache.length t);
      Cache.clear t;
      check Alcotest.int (name ^ ": empty") 0 (Cache.length t);
      for id = 0 to 52 do
        if Cache.find t id <> None then Alcotest.failf "%s: page %d survived clear" name id
      done;
      for id = 100 to 107 do
        Cache.insert t id (page 'b')
      done;
      check Alcotest.int (name ^ ": refilled") 8 (Cache.length t);
      for id = 100 to 107 do
        if Cache.find t id = None then Alcotest.failf "%s: page %d missing after refill" name id
      done)
    [ Cache.Lru; Cache.Rr; Cache.Hybrid ]

let () =
  Alcotest.run "cache"
    [
      ( "recency",
        [
          Alcotest.test_case "MRU hit leaves list untouched" `Quick test_mru_hit_does_not_relink;
          Alcotest.test_case "recency order preserved" `Quick test_mru_recency_still_correct;
        ] );
      ( "eviction",
        [ Alcotest.test_case "hybrid oldest of sample" `Quick test_hybrid_evicts_oldest_of_sample ]
      );
      ( "patch",
        [
          Alcotest.test_case "spans short final page" `Quick test_patch_spanning_short_final_page;
          Alcotest.test_case "past short page is no-op" `Quick test_patch_entirely_past_short_page;
        ] );
      ( "clear",
        [
          Alcotest.test_case "clear then reuse" `Quick test_clear_then_reuse;
          Alcotest.test_case "clear after eviction churn" `Quick test_clear_after_churn;
        ] );
    ]
