(* Timing, order statistics, process memory and the result line. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Host speed. A shared 2-vCPU VM (Xeon, 2.1 GHz) runs identical work at
   speeds that drift by up to 2x over seconds to minutes, on both vCPUs
   at once; no within-run statistic removes a slow minute. So every
   end-to-end time is scaled to a reference host speed: a fixed probe
   (map inserts, sorting, arithmetic: allocation and pointer chasing
   like the compiler's own) runs at most every 100 ms between
   operations, and an operation's wall time is multiplied by
   [probe_nominal_ms] over the probe's latest time (best of two). A
   change to the program moves the scaled time exactly as it moves the
   wall time; a change of host speed cancels. The probe shares no code
   with the program. *)
let probe () =
  let module M = Map.Make (Int) in
  let m = ref M.empty in
  for i = 0 to 2_000 do
    m := M.add ((i * 7919) land 65535) i !m
  done;
  let l = List.sort compare (List.init 2_000 (fun i -> (i * 104729) land 65535)) in
  ignore (Sys.opaque_identity (M.fold (fun k v acc -> acc + k + v) !m (List.length l)))

(* The probe's time, in ms, on the reference host: that VM in its fast
   stretches. *)
let probe_nominal_ms = 0.5

let probe_ms = ref nan
let probed_at = ref neg_infinity

(* The probe allocates about 220k words, less than the 256k-word minor
   heap: emptied first, the minor heap takes it without a collection, so
   the probe's time does not depend on what the workload left there.
   Probed without that, consecutive readings spread 2x. *)
let host_scale () =
  if now () -. !probed_at > 0.1 then begin
    let once () =
      Gc.minor ();
      snd (timed probe)
    in
    probe_ms := 1000.0 *. Float.min (once ()) (once ());
    probed_at := now ()
  end;
  probe_nominal_ms /. !probe_ms

(* Run [f]: its result, its wall time in ms, and the host scale for it —
   the mean of the scales before and after, which differ only when [f]
   ran long enough for the probe to be due again. *)
let scaled f =
  let before = host_scale () in
  let r, dt = timed f in
  (r, 1000.0 *. dt, (before +. host_scale ()) /. 2.0)

(* Time [f], in milliseconds scaled to the reference host speed. *)
let op f =
  let r, ms, scale = scaled f in
  (r, ms *. scale)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) k))

(* The tail percentile is the highest rung of this ladder that leaves at
   least ten samples beyond it in one pass of the workload's stream, so
   it depends on the stream size alone, never on how many passes a run
   happened to fit. *)
let tail_ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_percentile ~pass_ops =
  match
    List.find_opt (fun p -> float_of_int pass_ops *. (1.0 -. (p /. 100.0)) >= 10.0) tail_ladder
  with
  | Some p -> p
  | None -> 50.0

(* VmHWM (peak resident set) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  scan ()

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* What every workload run reports on its result line. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line r =
  let m =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " m)

(* Human-readable lines go to stdout ahead of the result line. *)
let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

(* The end-to-end metrics every workload reports, from the per-operation
   times (scaled ms, see [op]; stream order) of each pass over its
   stream. An operation's time is its median over the passes, and the
   throughput is the stream's operations per second of those medians;
   the wall-clock rate is printed alongside. The minimum over passes
   would pick whichever pass met the most favourable probe reading: on
   three runs of one exact seed it moved the p90 by 11% where the median
   moved it by 2%. *)
let end_to_end ~setup ~times ~wall_s ~rss_mb ~failed ~degradation ~copies ~optimal_pct ~what =
  let passes = Array.of_list (List.map Array.of_list times) in
  let k = Array.length passes and pass_ops = Array.length passes.(0) in
  let typical =
    Array.init pass_ops (fun i -> median (Array.to_list (Array.map (fun p -> p.(i)) passes)))
  in
  let service_s = Array.fold_left ( +. ) 0.0 typical /. 1000.0 in
  Array.sort compare typical;
  let p = tail_percentile ~pass_ops in
  let beyond = pass_ops - int_of_float (ceil (p /. 100.0 *. float_of_int pass_ops)) in
  say "%s: %d operations x %d passes in %.3f s wall (%.4f ops/s wall-clock); tail = p%g (%d operations beyond it)"
    what pass_ops k wall_s (float_of_int (k * pass_ops) /. wall_s) p beyond;
  [
    metric "setup_s" "s" (median setup);
    metric "throughput_per_s" "1/s" (float_of_int pass_ops /. service_s);
    metric "latency_p50_ms" "ms" (percentile typical 50.0);
    metric "latency_tail_ms" "ms" (percentile typical p);
    metric "peak_rss_mb" "MiB" rss_mb;
    metric "ok_pct" "%" (100.0 *. float_of_int ((k * pass_ops) - failed) /. float_of_int (k * pass_ops));
    metric "mean_degradation" "%" degradation;
    metric "mean_copies" "count" copies;
    metric "optimal_pct" "%" optimal_pct;
  ]

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [passes ~seconds ~nominal ~min_passes once] runs [once] over the
   workload's fixed stream as many times as whole passes of [nominal]
   seconds (the pass time on the reference machine) fit in the window,
   at least [min_passes]. The count depends on the window alone, so
   every run takes its medians over the same number of samples — unless
   the host is so slow that the passes overrun the window by half, when
   the run stops early rather than run on unbounded. *)
let passes ~seconds ~nominal ~min_passes ~once =
  let k = max min_passes (int_of_float (seconds /. nominal)) in
  let t0 = now () and c0 = cpu () in
  let rec go i acc =
    if i = k || (i >= min_passes && now () -. t0 > 1.5 *. seconds) then List.rev acc
    else begin
      let s = now () in
      let r = once () in
      say "pass %d: %.3f s" (i + 1) (now () -. s);
      go (i + 1) (r :: acc)
    end
  in
  let results = go 0 [] in
  let wall = now () -. t0 in
  say "passes: %d of %d in %.3f s wall, %.3f s cpu" (List.length results) k wall (cpu () -. c0);
  (results, wall)
