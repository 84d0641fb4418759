(* Wall-clock micro-benchmarks of the primitives each experiment leans on,
   one Bechamel test per table/figure. These measure the real OCaml
   implementation cost, time and minor-heap words per run (the experiment
   tables report virtual time). *)

open Bechamel
open Toolkit
open Asym_core

let lat = Asym_sim.Latency.default

(* A transaction's frame in a buffer of its own. *)
let encode_tx tx =
  let b = Bytes.create (Log.Tx.size tx) in
  ignore (Log.Tx.encode_into tx b ~pos:0);
  b

let setup () =
  let bk =
    Backend.create ~name:"micro" ~max_sessions:4 ~memlog_cap:(4 * 1024 * 1024)
      ~oplog_cap:(1024 * 1024) ~slab_size:4096 ~capacity:(64 * 1024 * 1024) lat
  in
  let clock = Asym_sim.Clock.create ~name:"fe" () in
  let c = Client.connect ~name:"fe" (Client.rcb ~batch_size:64 ()) bk ~clock in
  (bk, c)

let tests () =
  let bk, c = setup () in
  let h = Client.register_ds c "micro" in
  let addr = Client.malloc c 64 in
  ignore (Client.op_begin c ~ds:h.Types.id ~optype:1 ~params:Bytes.empty);
  Client.write c ~ds:h.Types.id ~addr (Bytes.make 64 'x');
  Client.op_end c ~ds:h.Types.id;
  Client.flush c;
  let module Bpt = Asym_structs.Pbptree.Make (Client) in
  let bpt = Bpt.attach c ~name:"micro.bpt" in
  for i = 0 to 999 do
    Bpt.put bpt ~key:(Int64.of_int i) ~value:(Bytes.make 64 'v')
  done;
  Client.flush c;
  let rng = Asym_util.Rng.create ~seed:1L in
  let zipf = Asym_util.Zipf.create ~theta:0.99 ~n:100_000 (Asym_util.Rng.create ~seed:2L) in
  let tx =
    {
      Log.Tx.ds = 1;
      op_hi = 7L;
      entries = List.init 8 (fun i -> Log.Mem_entry.make ~addr:(i * 64) (Bytes.make 64 'e'));
    }
  in
  let tx_bytes = encode_tx tx in
  let op =
    let params = Asym_structs.Params.of_kv 7L (Bytes.make 64 'p') in
    { Log.Op_entry.ds = 1; opnum = 7L; optype = 1; params }
  in
  (* A second session whose batch is drained by its own flush. *)
  let drainer =
    Client.connect ~name:"drain" (Client.rcb ~batch_size:64 ()) bk
      ~clock:(Asym_sim.Clock.create ~name:"drain" ())
  in
  let dh = Client.register_ds drainer "micro.drain" in
  let daddr = Client.malloc drainer 64 in
  let dval = Bytes.make 64 'r' in
  let i = ref 0 in
  (* A device whose first chunks all hold data, so the NVM tests below
     measure the chunk-table indirection, not first-touch allocation. *)
  let module Device = Asym_nvm.Device in
  let cs = Device.chunk_size in
  let dev = Device.create ~name:"micro.nvm" ~capacity:(1024 * 1024) lat in
  Device.write dev ~addr:0 (Bytes.make (4 * cs) 'd');
  let line = Bytes.make 64 'w' in
  (* The co-simulation engine: [Sched.run] over clients that each make
     [steps] 10 ns advances from time 0. *)
  let module Clock = Asym_sim.Clock in
  let module Sched = Asym_sim.Sched in
  let sched_clocks = [| Clock.create (); Clock.create () |] in
  let cosim ~clients ~steps () =
    Sched.run
      (List.init clients (fun i ->
           let clk = sched_clocks.(i) in
           Clock.reset clk;
           Sched.client ~clock:clk ~run:(fun () ->
               for _ = 1 to steps do
                 Clock.advance clk 10
               done)))
  in
  (* A read-retry's cache clear: 17 live pages out of 627 slots, the
     bst-shared reader's average. *)
  let retry_cache =
    Cache.create ~policy:Cache.Hybrid ~page_size:512 ~capacity_bytes:(627 * 512)
      (Asym_util.Rng.create ~seed:3L)
  in
  let page = Bytes.make 512 'p' in
  [
    (* NVM media: the sparse chunk table's cost per access. *)
    Test.make ~name:"nvm/read-512B"
      (Staged.stage (fun () -> ignore (Device.read dev ~addr:1024 ~len:512)));
    Test.make ~name:"nvm/read-straddle"
      (Staged.stage (fun () -> ignore (Device.read dev ~addr:(cs - 256) ~len:512)));
    Test.make ~name:"nvm/write-64B"
      (Staged.stage (fun () ->
           incr i;
           Device.write dev ~addr:((!i land 63) * 64) line));
    Test.make ~name:"nvm/zero-4KiB"
      (Staged.stage (fun () -> Device.zero dev ~addr:(2 * cs) ~len:cs));
    (* Table 2: the allocator fast path. *)
    Test.make ~name:"table2/two-tier-alloc-free"
      (Staged.stage (fun () ->
           let a = Client.malloc c 64 in
           Client.free c a ~len:64));
    (* Table 3: one cached read (the dominant RC/RCB operation). *)
    Test.make ~name:"table3/cached-read"
      (Staged.stage (fun () -> ignore (Client.read c ~addr ~len:64)));
    (* Figure 6: one logged write (memory-log append into the overlay). *)
    Test.make ~name:"fig6/mem-log-write"
      (Staged.stage (fun () ->
           incr i;
           Client.write c ~ds:h.Types.id ~addr (Bytes.make 64 (Char.chr (!i land 0xff)));
           if !i land 63 = 0 then Client.flush c));
    (* Figure 7: B+Tree lookup through the cache. *)
    Test.make ~name:"fig7/bptree-find"
      (Staged.stage (fun () ->
           ignore (Bpt.find bpt ~key:(Int64.of_int (Asym_util.Rng.int rng 1000)))));
    (* Figure 12: the Zipf generator itself. *)
    Test.make ~name:"fig12/zipf-next" (Staged.stage (fun () -> ignore (Asym_util.Zipf.next zipf)));
    (* Figure 13: trace value sizing + crc of a log record. *)
    Test.make ~name:"fig13/crc32-4k"
      (Staged.stage
         (let b = Bytes.make 4096 'z' in
          fun () -> ignore (Asym_util.Crc32.digest_bytes b)));
    (* §4.2: transaction encode + scan roundtrip. *)
    Test.make ~name:"tx/encode-scan"
      (Staged.stage (fun () ->
           match Log.Tx.scan (encode_tx tx) ~pos:0 with
           | Log.Tx.Record _ -> ()
           | _ -> assert false));
    (* §4.3: one operation-log frame. *)
    Test.make ~name:"log/op-encode" (Staged.stage (fun () -> ignore (Log.Op_entry.encode op)));
    (* §8.3: a logged B+Tree insert or update through the cache. *)
    Test.make ~name:"bpt/put"
      (Staged.stage (fun () ->
           let key = Int64.of_int (Asym_util.Rng.int rng 100_000) in
           Bpt.put bpt ~key ~value:(Bytes.make 64 'v')));
    (* §4.2: 64 one-write operations, then the flush that the back-end
       replays them from. *)
    Test.make ~name:"replay/drain-64-ops"
      (Staged.stage (fun () ->
           for _ = 1 to 64 do
             ignore (Client.op_begin drainer ~ds:dh.Types.id ~optype:1 ~params:Bytes.empty);
             Client.write drainer ~ds:dh.Types.id ~addr:daddr dval;
             Client.op_end drainer ~ds:dh.Types.id
           done;
           Client.flush drainer));
    (* §8 engine: 64 advances of a lone client, which never switches. *)
    Test.make ~name:"sched/advance-no-switch" (Staged.stage (cosim ~clients:1 ~steps:64));
    (* §8 engine: two clients in lockstep, 32 advances each — every
       advance switches. *)
    Test.make ~name:"sched/switch-2-clients" (Staged.stage (cosim ~clients:2 ~steps:32));
    (* §6.3: fill 17 pages, then the clear of a failed read section. *)
    Test.make ~name:"cache/clear-17-of-627"
      (Staged.stage (fun () ->
           for id = 0 to 16 do
             Cache.insert retry_cache id page
           done;
           Cache.clear retry_cache));
    (* §7.2: torn-tail scan of an intact record. *)
    Test.make ~name:"recovery/tx-scan" (Staged.stage (fun () -> ignore (Log.Tx.scan tx_bytes ~pos:0)));
  ]

(* Minor-heap words. Bechamel's own [minor_allocated] reads
   [Gc.quick_stat], which OCaml 5 updates only at minor collections, so it
   reads 0 for a run that fits in the minor heap; [Gc.minor_words] is
   exact. *)
module Minor_words = struct
  type witness = unit

  let label () = "minor-words"
  let unit () = "w"
  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
end

let minor_words = Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let run () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 10) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"micro" ~fmt:"%s %s" (tests ()))
  in
  let ns = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words raw in
  let estimate results name =
    match Analyze.OLS.estimates (Hashtbl.find results name) with
    | Some [ est ] -> Printf.sprintf "%10.1f" est
    | _ -> Printf.sprintf "%10s" "-"
  in
  Format.printf "@.== Bechamel micro-benchmarks (wall-clock ns/op, minor words/op) ==@.";
  Hashtbl.iter
    (fun name _ ->
      Format.printf "%-28s %s ns %s w@." name (estimate ns name) (estimate words name))
    ns
