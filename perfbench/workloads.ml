(* The three workloads. Each trial builds a fresh rig from the public
   constructors, preloads, warms up, runs the measured phase, and returns
   its raw figures. Inputs are generated from the seed by {!inputs}
   before any timer starts; every trial of one run replays the same
   inputs, so its simulated figures must repeat exactly. *)

open Asym_sim
open Asym_core
module Rng = Asym_util.Rng

type name = Bpt_write | Bpt_read_zipf | Bst_shared

let all = [ Bpt_write; Bpt_read_zipf; Bst_shared ]

let to_string = function
  | Bpt_write -> "bpt-write"
  | Bpt_read_zipf -> "bpt-read-zipf"
  | Bst_shared -> "bst-shared"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* Sizes are fixed per workload: the seed changes which keys are drawn,
   never how much work a trial does. *)
type size = {
  preload : int;  (** keys loaded before warm-up; keys drawn from [0, 4 * preload) *)
  warmup : int;  (** ops before the timer (per reader for bst-shared) *)
  ops : int;  (** measured ops (single client) / per-client sequence length *)
  duration : Simtime.t;  (** bst-shared: virtual length of the measured phase *)
  oplog_cap : int;  (** bytes of each session's op-log ring *)
  writer_cache : bool;  (** bst-shared: writers keep a front-end cache *)
}

let mib n = n * 1024 * 1024

(* The benchmark's configuration. Two settings stay inside the
   simulator's working envelope (see {!probe}): the B+Tree op log holds a
   whole trial without wrapping, and shared writers run without a cache. *)
let full = function
  | Bpt_write ->
      { preload = 20_000; warmup = 2_000; ops = 80_000; duration = 0; oplog_cap = mib 16;
        writer_cache = false }
  | Bpt_read_zipf ->
      { preload = 20_000; warmup = 20_000; ops = 150_000; duration = 0; oplog_cap = mib 16;
        writer_cache = false }
  | Bst_shared ->
      { preload = 10_000; warmup = 1_000; ops = 20_000; duration = Simtime.ms 300;
        oplog_cap = mib 1; writer_cache = false }

(* A scaled-down size for the self-check tests. *)
let small w =
  let f = full w in
  match w with
  | Bpt_write -> { f with preload = 1_000; warmup = 100; ops = 2_000 }
  | Bpt_read_zipf -> { f with preload = 1_000; warmup = 1_000; ops = 4_000 }
  | Bst_shared -> { f with preload = 500; warmup = 100; ops = 2_000; duration = Simtime.ms 2 }

(* Known-defect probes: each reproduces a simulator defect the
   benchmark's own configuration steers around.
   - bpt-write: 12k puts wrap a 1 MiB op-log ring; [Backend.restart] then
     scans the previous lap's stale records forever, so the durability
     pass times out.
   - bst-shared: writers that keep a front-end cache walk the shared tree
     through it, and [writer_lock] does not drop it, so a writer can
     overwrite a link another writer just filled and the read-back
     misses written keys. *)
let probe = function
  | Bpt_write -> Some { (small Bpt_write) with ops = 12_000; oplog_cap = mib 1 }
  | Bst_shared -> Some { (full Bst_shared) with writer_cache = true }
  | Bpt_read_zipf -> None

let writers = 2
let readers = 4

(* -- inputs ------------------------------------------------------------- *)

(* One op is [key lsl 1 lor is_put]. For single-client workloads
   [present] holds, for each op, whether a shadow map of every earlier
   put says the key exists — the expected outcome of a get. *)
type inputs = {
  size : size;
  preload_keys : int array;
  values : bytes array;  (** [values.(k)] = [Rig.value_of k] *)
  warm : int array;
  measured : int array;  (** single client *)
  present : Bytes.t;  (** expected presence per op of [warm] then [measured] *)
  final : Bytes.t;  (** keys the model holds after the measured phase *)
  clients : int array array;  (** bst-shared: writers first, then readers *)
  reader_warm : int array array;
}

let is_put op = op land 1 = 1
let key_of op = op lsr 1

let inputs w ~size ~seed =
  let rng = Rng.create ~seed in
  let keyspace = 4 * size.preload in
  let preload_keys =
    match w with
    | Bst_shared ->
        (* Midpoint order builds the same balanced BST for every seed. A
           shuffled preload gives each seed its own tree depth, and through
           the writers' lock hold time its own contention. *)
        let out = ref [] in
        let rec mid lo hi =
          if lo <= hi then begin
            let m = (lo + hi) / 2 in
            out := (4 * m) :: !out;
            mid lo (m - 1);
            mid (m + 1) hi
          end
        in
        mid 0 (size.preload - 1);
        Array.of_list (List.rev !out)
    | _ ->
        let a = Array.init size.preload (fun i -> 4 * i) in
        Rng.shuffle rng a;
        a
  in
  let values = Array.init keyspace (fun k -> Rig.value_of (Int64.of_int k)) in
  let uniform () = Rng.int rng keyspace in
  let zipf = Asym_util.Zipf.create ~theta:0.99 ~n:keyspace (Rng.split rng) in
  let gen n =
    Array.init n (fun _ ->
        match w with
        | Bpt_write -> (uniform () lsl 1) lor 1
        | Bpt_read_zipf ->
            let put = Rng.float rng < 0.05 in
            (Asym_util.Zipf.next_scrambled zipf lsl 1) lor if put then 1 else 0
        | Bst_shared -> 0)
  in
  let warm, measured =
    match w with Bst_shared -> ([||], [||]) | _ -> (gen size.warmup, gen size.ops)
  in
  let model = Bytes.make keyspace '\000' in
  Array.iter (fun k -> Bytes.set model k '\001') preload_keys;
  let ops = Array.append warm measured in
  let present = Bytes.make (Array.length ops) '\000' in
  Array.iteri
    (fun i op ->
      let k = key_of op in
      if is_put op then Bytes.set model k '\001'
      else Bytes.set present i (Bytes.get model k))
    ops;
  let clients, reader_warm =
    match w with
    | Bst_shared ->
        ( Array.init (writers + readers) (fun i ->
              Array.init size.ops (fun _ ->
                  (uniform () lsl 1) lor if i < writers then 1 else 0)),
          Array.init readers (fun _ -> Array.init size.warmup (fun _ -> uniform () lsl 1)) )
    | _ -> ([||], [||])
  in
  { size; preload_keys; values; warm; measured; present; final = model; clients; reader_warm }

(* -- trial results -------------------------------------------------------- *)

type trial = {
  rig_s : float;
  preload_s : float;
  setup_s : float;  (** rig creation + preload + warm-up, host *)
  host_s : float;  (** measured phase, host *)
  ops : int;
  sim_ns : int;  (** measured phase, virtual *)
  lats_us : float array;  (** per-op virtual latency *)
  words : float;
  minor : int;
  major : int;
  attempted : int;
  failed : int;
  counters : (string * float) list;  (** per-layer figures read from public counters *)
  host_layer : (string * float) list;  (** per-layer host figures (spans, durability) *)
  peak_rss_mb : float;  (** process peak RSS when the measured phase ended *)
  notes : string list;  (** why a check failed, when one did *)
}

(* Public counters summed over the clients of a trial, sampled around the
   measured phase. *)
type sample = {
  verbs : int;
  wire : int;
  flushes : int;
  retries : int;
  hits : int;
  misses : int;
  lock_wait : int;
  slab_rpcs : int;
  rpcs : int;
  replayed : int;
  cpu_busy : int;
  nic_busy : int;
  nic_queued : int;
  nvm_writes : int;
  nvm_bytes : int;
  mirror_bytes : int;
}

let sample (rig : Rig.t) clients =
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let dev = Backend.device rig.Rig.bk in
  {
    verbs = sum Client.rdma_ops;
    wire = sum Client.rdma_bytes;
    flushes = sum Client.flushes;
    retries = sum Client.read_retries;
    hits = sum (fun c -> fst (Client.cache_stats c));
    misses = sum (fun c -> snd (Client.cache_stats c));
    lock_wait = sum Client.lock_wait_ns;
    slab_rpcs = sum (fun c -> Front_alloc.slab_rpcs (Client.allocator c));
    rpcs = Backend.rpcs_served rig.bk;
    replayed = Backend.replayed_entries rig.bk;
    cpu_busy = Timeline.busy_total (Backend.cpu rig.bk);
    nic_busy = Timeline.busy_total (Backend.nic rig.bk);
    nic_queued = Timeline.queued_total (Backend.nic rig.bk);
    nvm_writes = Asym_nvm.Device.writes_performed dev;
    nvm_bytes = Asym_nvm.Device.bytes_written dev;
    mirror_bytes =
      (match rig.mirror with Some m -> Mirror.bytes_replicated m | None -> 0);
  }

(* Per-layer figures that come from counters (simulated, so they repeat
   exactly for a seed). [gets] is the number of get ops, [puts] the
   number of put ops. *)
let counter_metrics ~s0 ~s1 ~ops ~gets ~puts ~sim_ns =
  let d f = float_of_int (f s1 - f s0) in
  let per_op x = x /. float_of_int (max 1 ops) in
  let frac x = x /. float_of_int (max 1 sim_ns) in
  let attr =
    if Asym_obs.enabled () then
      List.map
        (fun c ->
          ( "attr." ^ Asym_obs.Attr.name c ^ "_ns_per_op",
            per_op (float_of_int (Asym_obs.Attr.get c)) ))
        Asym_obs.Attr.all
    else []
  in
  let hits = d (fun s -> s.hits) and misses = d (fun s -> s.misses) in
  let retries = d (fun s -> s.retries) in
  [
    ("rdma.verbs_per_op", per_op (d (fun s -> s.verbs)));
    ("rdma.bytes_per_op", per_op (d (fun s -> s.wire)));
    ("cache.hit_ratio", if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    ("client.flushes_per_op", per_op (d (fun s -> s.flushes)));
    ("alloc.slab_rpcs_per_op", per_op (d (fun s -> s.slab_rpcs)));
    ("backend.rpcs_per_op", per_op (d (fun s -> s.rpcs)));
    ("backend.replayed_entries_per_op", per_op (d (fun s -> s.replayed)));
    ("backend.cpu_busy_frac", frac (d (fun s -> s.cpu_busy)));
    ("nvm.writes_per_op", per_op (d (fun s -> s.nvm_writes)));
    ( "nvm.write_amp",
      d (fun s -> s.nvm_bytes) /. float_of_int (max 1 (puts * (8 + Rig.value_size))) );
    ("mirror.bytes_per_op", per_op (d (fun s -> s.mirror_bytes)));
    ("client.read_retries_per_read", retries /. float_of_int (max 1 gets));
    ( "client.read_useful_frac",
      if gets = 0 then 1.0 else float_of_int gets /. (float_of_int gets +. retries) );
    ("client.lock_wait_ns_per_op", per_op (d (fun s -> s.lock_wait)));
    ("backend.nic_busy_frac", frac (d (fun s -> s.nic_busy)));
    ("backend.nic_queued_ns_per_op", per_op (d (fun s -> s.nic_queued)));
  ]
  @ attr

let client_kinds =
  Trace.[ Read; Write; Op_begin; Op_end; Flush; Malloc; Writer_lock; Read_section ]

(* Per-layer host figures from the spans of the measured phase. Empty
   when the run is untraced. *)
let span_metrics ~traced ~ops =
  if not traced then []
  else begin
    let agg = Trace.aggregate () in
    Option.iter
      (fun path ->
        Trace.dump ~limit:200_000 path;
        Trace.dump_to := None)
      !Trace.dump_to;
    let per_op x = float_of_int x /. float_of_int (max 1 ops) in
    let structs_self =
      Array.fold_left
        (fun a k -> if Trace.is_structs k then a + (agg k).Trace.self_ns else a)
        0 Trace.kinds
    in
    ("structs.self_ns_per_op", per_op structs_self)
    :: List.concat_map
         (fun k ->
           let a = agg k in
           [
             (Trace.name k ^ ".calls_per_op", per_op a.Trace.calls);
             ( Trace.name k ^ ".ns_per_call",
               if a.Trace.calls = 0 then 0.0
               else float_of_int a.Trace.self_ns /. float_of_int a.Trace.calls );
           ])
         client_kinds
    @ [ ("trace.spans_per_op", per_op !Trace.count) ]
  end

let percentile a p =
  if Array.length a = 0 then 0.0 else Asym_util.Stats.percentile a p

(* -- single-client B+Tree workloads --------------------------------------- *)

(* Host seconds the durability pass may take before it counts as hung. *)
let restart_timeout_s = 0.5

module Pre_bpt = Asym_structs.Pbptree.Make (Tstore.Plain)
module Pre_bst = Asym_structs.Pbst.Make (Tstore.Plain)

(* Load the preload keys through a throwaway batching client. *)
let preload_with (rig : Rig.t) inp ~put =
  let pre = Rig.connect rig ~name:"preload" (Client.rcb ~batch_size:256 ()) in
  put pre inp.preload_keys;
  Client.close pre

type check = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let new_check () = { attempted = 0; failed = 0; notes = [] }

(* Count a failed check, keeping the first few explanations. *)
let fail chk why =
  chk.failed <- chk.failed + 1;
  if List.length chk.notes < 5 then chk.notes <- chk.notes @ [ why () ]

let show = function None -> "None" | Some v -> Printf.sprintf "Some <%d bytes>" (Bytes.length v)

let check_get chk inp k expect_present got =
  chk.attempted <- chk.attempted + 1;
  let ok =
    match got with
    | Some v -> expect_present && Bytes.equal v inp.values.(k)
    | None -> not expect_present
  in
  if not ok then
    fail chk (fun () ->
        Printf.sprintf "get %d: expected %s, got %s" k
          (if expect_present then "its value" else "None")
          (show got))

let guarded chk f = try f () with e -> fail chk (fun () -> "raised " ^ Printexc.to_string e)

module Single (S : Tstore.S) = struct
  module T = Asym_structs.Pbptree.Make (S)

  let run w inp ~traced ~verify =
    let t_setup = Hostclock.now_ns () in
    (* Two sessions: the preload client and the measured one. *)
    let rig =
      Rig.create ~mirror:(w = Bpt_write) ~max_sessions:2 ~oplog_cap:inp.size.oplog_cap
    in
    let rig_s = Hostclock.secs_since t_setup in
    let t_pre = Hostclock.now_ns () in
    preload_with rig inp ~put:(fun c keys ->
        let t = Pre_bpt.attach ~opts:Asym_structs.Ds_intf.locked_options c ~name:"bpt" in
        Array.iter (fun k -> Pre_bpt.put t ~key:(Int64.of_int k) ~value:inp.values.(k)) keys);
    let preload_s = Hostclock.secs_since t_pre in
    let cache_bytes = Rig.cache_bytes rig 0.10 in
    let cfg =
      match w with
      | Bpt_write -> Client.rcb ~cache_bytes ~batch_size:1024 ()
      | _ -> Client.rc ~cache_bytes ()
    in
    let c = Rig.connect rig ~name:"fe" cfg in
    let s = S.of_client ~id:1 c in
    let tree = T.attach ~opts:Asym_structs.Ds_intf.locked_options s ~name:"bpt" in
    let clk = Client.clock c in
    let chk = new_check () in
    let nwarm = Array.length inp.warm in
    let one i op =
      let k = key_of op in
      let key = Int64.of_int k in
      guarded chk (fun () ->
          if is_put op then begin
            chk.attempted <- chk.attempted + 1;
            S.op_span s Trace.Op_put (fun () -> T.put tree ~key ~value:inp.values.(k))
          end
          else
            check_get chk inp k
              (Bytes.get inp.present i = '\001')
              (S.op_span s Trace.Op_get (fun () -> T.find tree ~key)))
    in
    Array.iteri one inp.warm;
    let setup_s = Hostclock.secs_since t_setup in
    (* measured phase *)
    let ops = Array.length inp.measured in
    let lats = Array.make ops 0.0 in
    let s0 = sample rig [ c ] in
    if traced then Trace.reset ();
    Asym_obs.Attr.reset ();
    let v0 = Clock.now clk in
    let g0 = Hostclock.gc () in
    let h0 = Hostclock.now_ns () in
    for i = 0 to ops - 1 do
      let t = Clock.now clk in
      one (nwarm + i) inp.measured.(i);
      lats.(i) <- Simtime.to_us (Clock.now clk - t)
    done;
    let host_s = Hostclock.secs_since h0 in
    let g1 = Hostclock.gc () in
    let sim_ns = Clock.now clk - v0 in
    let s1 = sample rig [ c ] in
    let puts = Array.fold_left (fun a op -> if is_put op then a + 1 else a) 0 inp.measured in
    let counters = counter_metrics ~s0 ~s1 ~ops ~gets:(ops - puts) ~puts ~sim_ns in
    let spans = span_metrics ~traced ~ops in
    if traced then Trace.release ();
    let peak_rss_mb = Hostclock.peak_rss_mb () in
    (* Read back every key the model holds, then (bpt-write) crash the
       back-end, restart it, recover the client and read them back again. *)
    let readback () =
      Bytes.iteri
        (fun k p ->
          if p = '\001' then
            guarded chk (fun () -> check_get chk inp k true (T.find tree ~key:(Int64.of_int k))))
        inp.final
    in
    let durability =
      if not verify then []
      else begin
        readback ();
        if w <> Bpt_write then []
        else begin
          let t0 = Hostclock.now_ns () in
          let recovered =
            try
              Hostclock.with_timeout restart_timeout_s (fun () ->
                  Backend.crash rig.bk;
                  ignore (Backend.restart rig.bk);
                  Client.reconnect_after_backend_restart c;
                  let reg = Asym_structs.Registry.create () in
                  Asym_structs.Registry.register reg ~ds:(T.handle tree).Types.id (T.replay tree);
                  Asym_structs.Registry.replay_all reg (Client.recover c);
                  Client.flush c);
              true
            with e ->
              chk.attempted <- chk.attempted + 1;
              fail chk (fun () ->
                  Printf.sprintf "durability pass: crash/restart/recover %s"
                    (match e with
                    | Hostclock.Timed_out s -> Printf.sprintf "did not return within %.1f s" s
                    | e -> "raised " ^ Printexc.to_string e));
              false
          in
          let restart_s = Hostclock.secs_since t0 in
          let t1 = Hostclock.now_ns () in
          if recovered then readback ();
          ("backend.restart_s", restart_s)
          :: (if recovered then [ ("backend.readback_s", Hostclock.secs_since t1) ] else [])
        end
      end
    in
    {
      rig_s;
      preload_s;
      setup_s;
      host_s;
      ops;
      sim_ns;
      lats_us = lats;
      words = g1.words -. g0.words;
      minor = g1.minor - g0.minor;
      major = g1.major - g0.major;
      attempted = chk.attempted;
      failed = chk.failed;
      counters;
      host_layer = spans @ durability;
      peak_rss_mb;
      notes = chk.notes;
    }
end

(* -- bst-shared: writers and optimistic readers on one BST ----------------- *)

module Shared (S : Tstore.S) = struct
  module T = Asym_structs.Pbst.Make (S)

  let run inp ~traced ~verify =
    let opts = Asym_structs.Ds_intf.shared_options in
    let t_setup = Hostclock.now_ns () in
    let rig = Rig.create ~mirror:false ~max_sessions:8 ~oplog_cap:inp.size.oplog_cap in
    let rig_s = Hostclock.secs_since t_setup in
    let wcfg cache_bytes =
      {
        (Client.rcb ~cache_bytes ~batch_size:16 ()) with
        Client.flush_on_unlock = true;
        use_cache = inp.size.writer_cache;
      }
    in
    let t_pre = Hostclock.now_ns () in
    preload_with rig inp ~put:(fun c keys ->
        let t = Pre_bst.attach ~opts c ~name:"bst" in
        Array.iter (fun k -> Pre_bst.put t ~key:(Int64.of_int k) ~value:inp.values.(k)) keys);
    let preload_s = Hostclock.secs_since t_pre in
    let cache_bytes = Rig.cache_bytes rig 0.10 in
    let clients =
      Array.init (writers + readers) (fun i ->
          let cfg = if i < writers then wcfg cache_bytes else Client.rc ~cache_bytes () in
          let name =
            if i < writers then Printf.sprintf "w%d" i else Printf.sprintf "r%d" (i - writers)
          in
          let c = Rig.connect rig ~name cfg in
          let s = S.of_client ~id:i c in
          (c, s, T.attach ~opts s ~name:"bst"))
    in
    let chk = new_check () in
    let preloaded k = k land 3 = 0 && k < 4 * inp.size.preload in
    (* A read must return the key's pure value, and a preloaded key
       (never deleted) must be found. *)
    let check_read k got =
      chk.attempted <- chk.attempted + 1;
      match got with
      | Some v ->
          if not (Bytes.equal v inp.values.(k)) then
            fail chk (fun () -> Printf.sprintf "read %d: wrong value" k)
      | None ->
          if preloaded k then fail chk (fun () -> Printf.sprintf "read %d: preloaded key missing" k)
    in
    Array.iteri
      (fun r keys ->
        let _, _, t = clients.(writers + r) in
        Array.iter
          (fun k -> guarded chk (fun () -> check_read k (T.find t ~key:(Int64.of_int k))))
          keys)
      (Array.map (Array.map key_of) inp.reader_warm);
    let clocks = Array.to_list (Array.map (fun (c, _, _) -> Client.clock c) clients) in
    let t0 = Sched.makespan clocks in
    List.iter (fun clk -> Clock.wait_until clk t0) clocks;
    let deadline = t0 + inp.size.duration in
    let setup_s = Hostclock.secs_since t_setup in
    (* measured phase *)
    let written = Bytes.make (4 * inp.size.preload) '\000' in
    let counts = Array.make (writers + readers) 0 in
    let lats = Array.map (fun _ -> Array.make 1024 0.0) clients in
    let record i l =
      let n = counts.(i) in
      if n >= Array.length lats.(i) then begin
        let a = Array.make (2 * n) 0.0 in
        Array.blit lats.(i) 0 a 0 n;
        lats.(i) <- a
      end;
      lats.(i).(n) <- l;
      counts.(i) <- n + 1
    in
    let cs = List.map (fun (c, _, _) -> c) (Array.to_list clients) in
    let s0 = sample rig cs in
    if traced then Trace.reset ();
    Asym_obs.Attr.reset ();
    let body i () =
      let c, s, t = clients.(i) in
      let clk = Client.clock c in
      let keys = inp.clients.(i) in
      let n = Array.length keys in
      while Clock.now clk < deadline do
        let op = keys.(counts.(i) mod n) in
        let k = key_of op in
        let key = Int64.of_int k in
        let start = Clock.now clk in
        guarded chk (fun () ->
            if is_put op then begin
              chk.attempted <- chk.attempted + 1;
              S.op_span s Trace.Op_put (fun () -> T.put t ~key ~value:inp.values.(k));
              Bytes.set written k '\001'
            end
            else check_read k (S.op_span s Trace.Op_get (fun () -> T.find t ~key)));
        record i (Simtime.to_us (Clock.now clk - start))
      done
    in
    let scheds =
      Array.to_list
        (Array.mapi
           (fun i (c, s, _) ->
             Sched.client ~clock:(Client.clock c) ~run:(fun () -> S.run_owned s (body i)))
           clients)
    in
    let g0 = Hostclock.gc () in
    let h0 = Hostclock.now_ns () in
    Sched.run scheds;
    let host_ns = Hostclock.now_ns () - h0 in
    let g1 = Hostclock.gc () in
    let sim_ns = Sched.makespan clocks - t0 in
    let s1 = sample rig cs in
    let ops = Array.fold_left ( + ) 0 counts in
    let puts = Array.fold_left ( + ) 0 (Array.sub counts 0 writers) in
    let counters = counter_metrics ~s0 ~s1 ~ops ~gets:(ops - puts) ~puts ~sim_ns in
    let sched_self =
      if not traced then []
      else begin
        let running =
          Array.fold_left (fun a (_, (s : S.t), _) -> a + S.running_ns s) 0 clients
        in
        [ ("sched.self_s", float_of_int (host_ns - running) /. 1e9) ]
      end
    in
    let spans = span_metrics ~traced ~ops in
    if traced then Trace.release ();
    let peak_rss_mb = Hostclock.peak_rss_mb () in
    if verify then begin
      (* Make every write durable and applied, then read back every key
         the model holds through a fresh client (cold cache). *)
      Array.iteri
        (fun i (c, _, _) -> if i < writers then guarded chk (fun () -> Client.persist_fence c))
        clients;
      let v = Rig.connect rig ~name:"verify" (Client.rc ~cache_bytes ()) in
      let t = Pre_bst.attach ~opts v ~name:"bst" in
      for k = 0 to Bytes.length written - 1 do
        if preloaded k || Bytes.get written k = '\001' then
          guarded chk (fun () ->
              chk.attempted <- chk.attempted + 1;
              match Pre_bst.find t ~key:(Int64.of_int k) with
              | Some got when Bytes.equal got inp.values.(k) -> ()
              | got -> fail chk (fun () -> Printf.sprintf "read-back %d: got %s" k (show got)))
      done
    end;
    {
      rig_s;
      preload_s;
      setup_s;
      host_s = float_of_int host_ns /. 1e9;
      ops;
      sim_ns;
      lats_us =
        Array.concat (Array.to_list (Array.mapi (fun i a -> Array.sub a 0 counts.(i)) lats));
      words = g1.words -. g0.words;
      minor = g1.minor - g0.minor;
      major = g1.major - g0.major;
      attempted = chk.attempted;
      failed = chk.failed;
      counters;
      host_layer = sched_self @ spans;
      peak_rss_mb;
      notes = chk.notes;
    }
end

let run w inp ~traced ~verify =
  match (w, traced) with
  | Bst_shared, false ->
      let module M = Shared (Tstore.Plain) in
      M.run inp ~traced ~verify
  | Bst_shared, true ->
      let module M = Shared (Tstore.Traced) in
      M.run inp ~traced ~verify
  | _, false ->
      let module M = Single (Tstore.Plain) in
      M.run w inp ~traced ~verify
  | _, true ->
      let module M = Single (Tstore.Traced) in
      M.run w inp ~traced ~verify
