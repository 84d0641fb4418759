(* Host-side measurements: a monotonic nanosecond clock, GC counters and
   the process's peak resident set. Everything here is about what the
   simulator costs to run, never about simulated time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

type gc = { words : float; minor : int; major : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
  }

(* Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

exception Timed_out of float

(* Run [f], interrupting it with [Timed_out] once it has run [secs] host
   seconds (a SIGALRM timer; OCaml delivers the signal at the next
   allocation or poll point). Guards calls that may never return. *)
let with_timeout secs f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise (Timed_out secs))) in
  let arm v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = v }) in
  arm secs;
  Fun.protect
    ~finally:(fun () ->
      arm 0.0;
      Sys.set_signal Sys.sigalrm old)
    f
