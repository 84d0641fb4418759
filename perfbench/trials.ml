(* One benchmark run of one workload: generate the inputs from the seed,
   repeat fresh trials until the time budget is spent, and check that
   every trial produced the same simulated facts. *)

type outcome = {
  untraced : Workloads.trial list;
  traced : Workloads.trial list;  (** empty unless the run is traced *)
  deterministic : bool;  (** every trial's simulated facts were equal *)
  attempted : int;
  failed : int;
}

let trial w inp ~traced ~verify =
  Gc.compact ();
  if traced then Asym_obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      if traced then begin
        Asym_obs.set_enabled false;
        Asym_obs.reset ()
      end)
    (fun () -> Workloads.run w inp ~traced ~verify)

(* Trials alternate untraced / traced when [traced]; the first untraced
   trial also runs the read-back and durability checks. At least one
   trial (pair) runs whatever the budget; another starts only if one
   more like the last still ends within it. *)
let run w ~size ~seed ~seconds ~traced =
  let inp = Workloads.inputs w ~size ~seed in
  let t0 = Hostclock.now_ns () in
  let rec loop k u t =
    let t1 = Hostclock.now_ns () in
    let u = trial w inp ~traced:false ~verify:(k = 0) :: u in
    let t = if traced then trial w inp ~traced:true ~verify:false :: t else t in
    if Hostclock.secs_since t0 +. Hostclock.secs_since t1 < seconds && k < 63 then
      loop (k + 1) u t
    else (List.rev u, List.rev t)
  in
  let untraced, traced = loop 0 [] [] in
  let all = untraced @ traced in
  let reference = Report.facts (List.hd untraced) in
  {
    untraced;
    traced;
    deterministic = List.for_all (fun tr -> Report.facts tr = reference) all;
    attempted = List.fold_left (fun a (tr : Workloads.trial) -> a + tr.attempted) 0 all;
    failed = List.fold_left (fun a (tr : Workloads.trial) -> a + tr.failed) 0 all;
  }
