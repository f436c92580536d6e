(* The service compile path: a fresh `rbp serve --workers 1 --no-cache`
   daemon on a fresh Unix socket, driven by one closed-loop client that
   replays the seeded suite at 2x8, 4x4 and 8x2 embedded in seeded
   order. One client on one worker keeps queueing out of the latency:
   with more of either, a request's wait depends on which heavy compile
   it lands behind, and the figures stop repeating. *)

let geometries = [ 2; 4; 8 ]

let per_layer =
  [ ("serve.queue_ms", "ms"); ("serve.compile_ms", "ms"); ("serve.wire_ms", "ms");
    ("robust.run_ms", "ms"); ("verify.pass_ms", "ms"); ("analysis.check_ms", "ms");
    ("regalloc.alloc_ms", "ms"); ("robust.overhead_ratio", "ratio"); ("robust.attempts", "count");
    ("robust.rung.greedy", "count"); ("robust.rung.uas", "count"); ("robust.rung.bug", "count");
    ("robust.rung.single_bank", "count"); ("robust.rung.non_pipelined", "count");
    ("robust.rung.escalated", "count"); ("robust.rung.respilled", "count");
    ("regalloc.spills", "count") ]

(* [setup_s] is scaled to the reference host speed (see Measure.op). *)
type daemon = { pid : int; sock : string; client : Serve.Client.t; setup_s : float }

let socket_counter = ref 0

(* Daemons not yet drained; killed and reaped if the run dies early or
   is itself terminated. *)
let live : int list ref = ref []

let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let connect addr ~until =
  let rec go () =
    match Serve.Client.connect addr with
    | Ok c -> c
    | Error e ->
        if Measure.now () > until then failwith ("cannot reach the daemon: " ^ e);
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Spawn a daemon and time it from spawn to its first pong. *)
let spawn () =
  Gate.ensure_state_dir ();
  incr socket_counter;
  let sock =
    Filename.concat Gate.state_dir
      (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let (pid, client), ms =
    Measure.op (fun () ->
        let pid =
          Unix.create_process Gate.rbp
            [| Gate.rbp; "serve"; "--listen"; "unix:" ^ sock; "--workers"; "1"; "--no-cache";
               "--log-level"; "error" |]
            Unix.stdin Unix.stderr Unix.stderr
        in
        live := pid :: !live;
        let client = connect (Serve.Wire.Unix_path sock) ~until:(Measure.now () +. 60.0) in
        (match Serve.Client.request ~timeout_s:60.0 client Serve.Proto.Ping with
        | Ok Serve.Proto.Pong -> ()
        | Ok r -> failwith ("unexpected ping reply " ^ Serve.Proto.reply_to_string r)
        | Error e -> failwith ("ping failed: " ^ e));
        (pid, client))
  in
  { pid; sock; client; setup_s = ms /. 1000.0 }

(* SIGTERM drain; the daemon must exit 0. *)
let stop d =
  Serve.Client.close d.client;
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  (try Sys.remove d.sock with Sys_error _ -> ());
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Gate.fail "serve: daemon exited %d after SIGTERM" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Gate.fail "serve: daemon killed by signal %d" n

let machine clusters = Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded

(* The loop as the daemon sees it: parsed back from the request's IR
   text, so in-process checks compile exactly what the daemon compiles. *)
let on_the_wire loop =
  match Ir.Parse.loop_of_string (Ir.Parse.loop_to_string loop) with
  | Ok l -> l
  | Error e -> failwith (Printf.sprintf "%s does not round-trip: %s" (Ir.Loop.name loop) e)

(* Every third suite loop (kernels and generated loops alike) at all
   three geometries: 213 requests, short enough for several passes and the
   in-process check of every reply within one run. *)
let stream ~seed =
  let loops = List.map on_the_wire (List.filteri (fun i _ -> i mod 3 = 0) (Inputs.suite ~seed)) in
  let ops = List.concat_map (fun l -> List.map (fun c -> (c, l)) geometries) loops in
  Array.of_list (Util.Prng.shuffle (Util.Prng.create seed) ops)

let request i (clusters, loop) =
  Serve.Proto.Compile
    {
      Serve.Proto.id = string_of_int i;
      ir = Ir.Parse.loop_to_string loop;
      clusters;
      model = Mach.Machine.Embedded;
      deadline_ms = None;
      no_cache = true;
      fault = None;
      trace_id = None;
      trace = false;
    }

(* [rtt_ms] is wall-clock; [scale] converts it to the reference host
   speed (see Measure.op). *)
type answer = { rtt_ms : float; scale : float; reply : Serve.Proto.result_reply option }

let ask d i op =
  let line = Serve.Proto.request_to_string (request i op) in
  let reply, rtt_ms, scale =
    Measure.scaled (fun () ->
        match Serve.Client.send_line d.client line with
        | Error _ -> None
        | Ok () -> (
            match Serve.Client.recv_reply ~timeout_s:120.0 d.client with
            | Ok (Serve.Proto.Result r) -> Some r
            | Ok _ | Error _ -> None))
  in
  { rtt_ms; scale; reply }

let ok_metrics a =
  match a.reply with
  | Some { Serve.Proto.outcome = Ok m; _ } -> Some m
  | _ -> None

(* One line per reply: what the daemon says it emitted. *)
let line (clusters, loop) a =
  let head = Printf.sprintf "%d|%s" clusters (Ir.Loop.name loop) in
  match a.reply with
  | None -> head ^ "|unanswered"
  | Some r -> (
      let rung = Option.value ~default:"-" r.Serve.Proto.rung in
      match r.Serve.Proto.outcome with
      | Ok m ->
          Printf.sprintf "%s|ok|%s|%d|%d|%d|%d|%b|%s" head rung m.Core.Metrics.ideal_ii
            m.Core.Metrics.clustered_ii m.Core.Metrics.n_copies r.Serve.Proto.spills
            r.Serve.Proto.pipelined
            (match r.Serve.Proto.flat_cycles with Some c -> string_of_int c | None -> "-")
      | Error e -> Printf.sprintf "%s|%s|%s" head (Serve.Proto.status_of_reply (Serve.Proto.Result r)) e.Verify.Stage_error.code)

(* The same line, from an in-process Robust.Driver.run. *)
let local_line (clusters, loop) = function
  | Error (e : Verify.Stage_error.t) ->
      Printf.sprintf "%d|%s|error|%s" clusters (Ir.Loop.name loop) e.Verify.Stage_error.code
  | Ok (r : Robust.Driver.result) ->
      let ideal, ii, pipelined, flat =
        match r.Robust.Driver.code with
        | Robust.Driver.Kernel { ii; ideal_ii; _ } -> (ideal_ii, ii, true, "-")
        | Robust.Driver.Flat s ->
            (* the daemon's neutral metrics for surrendered code *)
            let c = Sched.Schedule.length s in
            (max 1 c, max 1 c, false, string_of_int c)
      in
      Printf.sprintf "%d|%s|ok|%s|%d|%d|%d|%d|%b|%s" clusters (Ir.Loop.name loop)
        (Robust.Driver.rung_name r.Robust.Driver.rung) ideal ii r.Robust.Driver.n_copies
        r.Robust.Driver.spill_count pipelined flat

let is_ok a = ok_metrics a <> None

let check_reply op a local =
  if is_ok a then
    let got = line op a and want = local_line op local in
    Gate.check (got = want) "serve: reply %s differs from in-process Robust.Driver.run %s" got want

let quality answers =
  let ms = List.filter_map ok_metrics answers in
  let fi = float_of_int in
  ( Measure.mean (List.map (fun (m : Core.Metrics.loop_metrics) -> m.degradation) ms),
    Measure.mean (List.map (fun (m : Core.Metrics.loop_metrics) -> fi m.n_copies) ms),
    100.0
    *. fi (List.length (List.filter (fun (m : Core.Metrics.loop_metrics) -> m.clustered_ii = m.ideal_ii) ms))
    /. fi (max 1 (List.length answers)) )

let warm d ops warmup =
  for i = 0 to min warmup (Array.length ops) - 1 do
    ignore (ask d (-1 - i) ops.(i))
  done

(* Setup samples: throwaway daemons spawned and drained, then the one
   that serves the run. *)
let start ~setups =
  let throwaway =
    List.init (max 0 (setups - 1)) (fun _ ->
        let d = spawn () in
        stop d;
        d.setup_s)
  in
  let d = spawn () in
  (d, d.setup_s :: throwaway)

let run ~seed ~seconds ~warmup ~setups =
  let ops = stream ~seed in
  let d, setup_times = start ~setups in
  warm d ops warmup;
  Measure.say "serve: %d requests per pass (every third suite loop x %d geometries), 1 client, 1 worker; %d warm-up requests untimed"
    (Array.length ops) (List.length geometries) warmup;
  let once () = Array.to_list (Array.mapi (fun i op -> ask d i op) ops) in
  let passes, wall = Measure.passes ~seconds ~nominal:8.5 ~min_passes:2 ~once in
  let rss = Measure.peak_rss_mb (Some d.pid) in
  stop d;
  let all = List.concat passes in
  let failed = List.length (List.filter (fun a -> not (is_ok a)) all) in
  Gate.check (List.for_all (fun a -> a.reply <> None) all) "serve: unanswered requests";
  let first = List.hd passes in
  Gate.passes ~key:(Printf.sprintf "serve-%d" seed)
    (List.map (fun p -> List.map2 line (Array.to_list ops) p) passes);
  (* Every ok reply must match an in-process run. *)
  List.iteri
    (fun i a ->
      let c, l = ops.(i) in
      match Robust.Driver.run ~machine:(machine c) l with
      | local -> check_reply ops.(i) a local
      | exception e -> Gate.fail "serve: in-process run raised %s" (Printexc.to_string e))
    first;
  let degradation, copies, optimal = quality first in
  let metrics =
    Measure.end_to_end ~setup:setup_times
      ~times:(List.map (List.map (fun a -> a.scale *. a.rtt_ms)) passes)
      ~wall_s:wall ~rss_mb:rss ~failed ~degradation ~copies
      ~optimal_pct:optimal ~what:"serve"
  in
  (metrics, List.length all, failed)

let rung_counts t (r : Robust.Driver.result) =
  let base = List.hd Robust.Driver.default_config.Robust.Driver.budget_schedule in
  let name, budget, respilled =
    match r.Robust.Driver.rung with
    | Robust.Driver.Pipelined { partitioner; budget_ratio; respilled } ->
        (partitioner, budget_ratio, respilled)
    | Robust.Driver.Single_bank { budget_ratio; respilled } -> ("single_bank", budget_ratio, respilled)
    | Robust.Driver.Non_pipelined -> ("non_pipelined", base, false)
  in
  Layers.count t ("robust.rung." ^ name) 1;
  if budget > base then Layers.count t "robust.rung.escalated" 1;
  if respilled then Layers.count t "robust.rung.respilled" 1

(* Traced: one pass through the daemon (its replies carry queue and
   compile time), then the same requests replayed in-process with every
   layer of the service compile timed apart. *)
let traced ~seed ~warmup =
  let ops = stream ~seed in
  let d, _ = start ~setups:1 in
  warm d ops warmup;
  let t0 = Measure.now () in
  let answers = Array.mapi (fun i op -> ask d i op) ops in
  let pass_wall = Measure.now () -. t0 in
  stop d;
  let t = Layers.create () in
  Array.iter
    (fun a ->
      match a.reply with
      | Some r ->
          let tm = r.Serve.Proto.timing in
          Layers.add_time t "serve.queue" (tm.Serve.Proto.queue_ms /. 1000.0);
          Layers.add_time t "serve.compile" (tm.Serve.Proto.compile_ms /. 1000.0);
          Layers.add_time t "serve.wire" ((a.rtt_ms -. tm.Serve.Proto.total_ms) /. 1000.0)
      | None -> Gate.fail "serve: unanswered request")
    answers;
  Gate.passes ~key:(Printf.sprintf "serve-%d" seed)
    [ Array.to_list (Array.map2 line ops answers) ];
  let t1 = Measure.now () in
  Array.iteri
    (fun i ((clusters, loop) as op) ->
      let machine = machine clusters in
      let local = Layers.timed t "robust.run" (fun () -> Robust.Driver.run ~machine loop) in
      check_reply op answers.(i) local;
      let _, agree = Layers.pipeline_checked t ~machine loop in
      Gate.check agree "serve: re-composition of %s on %dx%d differs from the real call"
        (Ir.Loop.name loop) clusters (16 / clusters);
      match local with
      | Error _ -> ()
      | Ok r -> (
          Layers.count t "robust.attempts" (List.length r.Robust.Driver.attempts);
          Layers.count t "regalloc.spills" r.Robust.Driver.spill_count;
          rung_counts t r;
          ignore (Layers.timed t "verify.pass" (fun () -> Robust.Driver.verify_diags r));
          Layers.timed t "analysis.check" (fun () ->
              let latency = machine.Mach.Machine.latency in
              ignore (Verify.Analysis_check.check ~latency loop);
              ignore (Verify.Analysis_check.check ~latency r.Robust.Driver.rewritten));
          match Partition.Driver.pipeline ~machine loop with
          | Error _ -> ()
          | Ok p ->
              ignore
                (Layers.timed t "regalloc.alloc" (fun () ->
                     Regalloc.Alloc.allocate_loop ~max_rounds:8 ~machine
                       ~assignment:p.Partition.Driver.assignment p.Partition.Driver.rewritten))))
    ops;
  let replay_wall = Measure.now () -. t1 in
  let n = Array.length ops in
  let per name = 1000.0 *. Layers.time_of t name /. float_of_int n in
  let c name = float_of_int (Layers.count_of t name) in
  let metrics =
    Layers.pipeline_metrics t ~ops:n
    @ List.map
        (fun l -> Measure.metric (l ^ "_ms") "ms" (per l))
        [ "serve.queue"; "serve.compile"; "serve.wire"; "robust.run"; "verify.pass";
          "analysis.check"; "regalloc.alloc" ]
    @ [
        Measure.metric "robust.overhead_ratio" "ratio"
          (Layers.time_of t "robust.run" /. Layers.time_of t "partition.pipeline");
        Measure.metric "trace.overhead_ratio" "ratio" ((pass_wall +. replay_wall) /. pass_wall);
      ]
    @ List.filter_map
        (fun (name, unit_) -> if unit_ = "count" then Some (Measure.metric name unit_ (c name)) else None)
        per_layer
  in
  let failed = Array.fold_left (fun acc a -> if is_ok a then acc else acc + 1) 0 answers in
  (metrics, n, failed)
