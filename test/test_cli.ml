(* The asymnvm command line: bad input is rejected up front with a
   one-line message and exit status 1 (2 for bench-diff, as for an
   unreadable document), and a structure resolves by either
   of its catalogue spellings. Runs the built binary; dune runs this suite
   from _build/default/test. *)

let check = Alcotest.check
let exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "asymnvm.exe"

(* Run the binary; return its exit status, stdout and stderr. *)
let run args =
  let out = Filename.temp_file "asymnvm" ".out" in
  let err = Filename.temp_file "asymnvm" ".err" in
  let status = Sys.command (Filename.quote_command exe args ~stdout:out ~stderr:err) in
  let read f =
    let s = In_channel.with_open_text f In_channel.input_all in
    Sys.remove f;
    s
  in
  let out = read out in
  (status, out, read err)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejects ?(status = 1) args flag () =
  let got, _, err = run args in
  check Alcotest.int "exit status" status got;
  check Alcotest.bool (Printf.sprintf "message %S names %s" err flag) true (contains err flag);
  check Alcotest.int "one line" 1
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' err)))

(* A layout that does not fit names the part that overflows. *)
let layout_hint args ~names ~not_names () =
  let status, _, err = run ("layout" :: args) in
  check Alcotest.int "exit status" 1 status;
  check Alcotest.bool (Printf.sprintf "hint %S names %s" err names) true (contains err names);
  check Alcotest.bool
    (Printf.sprintf "hint %S does not name %s" err not_names)
    false (contains err not_names)

let resolves spelling id () =
  let status, out, err =
    run [ "check"; "--structure"; spelling; "--ops"; "2"; "--stride"; "1000"; "--no-tear" ]
  in
  check Alcotest.int ("exit status; stderr: " ^ err) 0 status;
  check Alcotest.bool (Printf.sprintf "%S sweeps %s" out id) true (contains out (id ^ " "))

let () =
  Alcotest.run "cli"
    [
      ( "check rejects",
        [
          Alcotest.test_case "negative --ops" `Quick (rejects [ "check"; "--ops=-3" ] "--ops");
          Alcotest.test_case "--stride 0" `Quick
            (rejects [ "check"; "--stride"; "0" ] "--stride");
          Alcotest.test_case "--fault-drop 1.5" `Quick
            (rejects [ "check"; "--fault-drop"; "1.5" ] "--fault-drop");
          Alcotest.test_case "--fuzz-clients 0" `Quick
            (rejects [ "check"; "--fuzz-clients"; "0" ] "--fuzz-clients");
          Alcotest.test_case "unknown structure" `Quick
            (rejects [ "check"; "--structure"; "btree" ] "unknown structure");
          Alcotest.test_case "profile unknown structure" `Quick
            (rejects [ "profile"; "--structure"; "btree" ] "unknown structure");
          Alcotest.test_case "profile --preload=-1" `Quick
            (rejects [ "profile"; "--preload=-1" ] "--preload");
          Alcotest.test_case "profile --ops=-5" `Quick (rejects [ "profile"; "--ops=-5" ] "--ops");
          Alcotest.test_case "profile --ops 0" `Quick (rejects [ "profile"; "--ops"; "0" ] "--ops");
          Alcotest.test_case "layout --slab 0" `Quick (rejects [ "layout"; "--slab"; "0" ] "--slab");
          Alcotest.test_case "layout --sessions=-1" `Quick
            (rejects [ "layout"; "--sessions=-1" ] "--sessions");
          Alcotest.test_case "layout --sessions 0" `Quick
            (rejects [ "layout"; "--sessions"; "0" ] "--sessions");
          Alcotest.test_case "layout --capacity=-5" `Quick
            (rejects [ "layout"; "--capacity=-5" ] "--capacity");
          Alcotest.test_case "demo --ops=-3" `Quick (rejects [ "demo"; "--ops=-3" ] "--ops");
          Alcotest.test_case "trace --ops=-1" `Quick (rejects [ "trace"; "--ops=-1" ] "--ops");
          Alcotest.test_case "bench-diff --tolerance nan" `Quick
            (rejects ~status:2
               [ "bench-diff"; "--tolerance"; "nan"; "OLD.json"; "NEW.json" ]
               "--tolerance");
          Alcotest.test_case "bench-diff --tolerance=-1" `Quick
            (rejects ~status:2
               [ "bench-diff"; "--tolerance=-1"; "OLD.json"; "NEW.json" ]
               "--tolerance");
        ] );
      ( "layout hints",
        [
          Alcotest.test_case "slab overflows" `Quick
            (layout_hint [ "--slab"; "999999999" ] ~names:"--slab" ~not_names:"--sessions");
          Alcotest.test_case "rings overflow" `Quick
            (layout_hint [ "--capacity"; "40" ] ~names:"--sessions" ~not_names:"--slab");
        ] );
      ( "structure spellings",
        [
          Alcotest.test_case "checker id" `Quick (resolves "pbptree" "pbptree");
          Alcotest.test_case "table label" `Quick (resolves "BPT" "pbptree");
          Alcotest.test_case "dashed label" `Quick (resolves "mv-bpt" "pmvbptree");
        ] );
    ]
