(* The output gate. Every per-operation result is rendered as one line;
   a pass's lines fold into a digest that must repeat within a run (pass
   against pass) and across runs (against the digest the first run of
   the same build at the same workload and seed left in the state
   directory). Any mismatch, and any failed check, makes the run
   incorrect. *)

let state_dir = "perfbench/_state"

(* The rbp daemon the serve workload drives; run.py builds it. *)
let rbp = "_build/default/bin/rbp.exe"

(* Digests are recorded per build of this benchmark (which links the
   libraries) and of rbp: a rebuilt program may rightly emit other
   results, and is held to its own earlier runs only. *)
let build_id =
  lazy
    (String.sub
       (Digest.to_hex
          (Digest.string (String.concat "" (List.map Digest.file [ Sys.executable_name; rbp ]))))
       0 12)

let ensure_state_dir () =
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755

let problems : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then problems := s :: !problems) fmt

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Compare [digest] with the one recorded under [key], recording it on
   first sight. *)
let repeat ~key digest =
  ensure_state_dir ();
  let path = Filename.concat state_dir (Printf.sprintf "%s-%s.digest" (Lazy.force build_id) key) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let old = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
    check (old = digest) "%s: digest %s differs from the earlier run's %s" key digest old
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (digest ^ "\n");
    close_out oc;
    Sys.rename tmp path
  end

(* Passes of one run must produce identical lines; the first pass's
   digest must match earlier runs. *)
let passes ~key = function
  | [] -> fail "%s: no pass completed" key
  | first :: rest ->
      List.iteri
        (fun i lines -> check (lines = first) "%s: pass %d differs from pass 1" key (i + 2))
        rest;
      let d = digest first in
      Measure.say "%s: output digest %s" key d;
      repeat ~key d

let ok () =
  List.iter (fun p -> Measure.say "GATE FAILURE: %s" p) (List.rev !problems);
  !problems = []
