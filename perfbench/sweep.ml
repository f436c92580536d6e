(* The report sweep: the seeded suite under the six paper configurations,
   one compile per timed operation, through Core.Experiment.run_all on a
   single domain with no result cache — what `rbp report` users run. *)

(* Tables 1–2 of EXPERIMENTS.md, "ours" rows, in paper column order. *)
let table1_ipc = [ "8.6"; "6.7"; "8.5"; "7.4"; "7.8"; "7.4" ]
let table2_arith = [ "112"; "128"; "125"; "113"; "150"; "117" ]
let table2_harm = [ "109"; "116"; "118"; "108"; "132"; "111" ]

type setup = { loops : Ir.Loop.t list; configs : Core.Experiment.config list }

let setup ~seed () =
  let loops = Inputs.suite ~seed in
  let configs =
    List.map
      (fun (c : Core.Experiment.config) ->
        Core.Experiment.config_for ~clusters:c.clusters ~copy_model:c.copy_model)
      Core.Experiment.paper_configs
  in
  { loops; configs }

(* Config-major, suite order: the order run_all itself compiles in. *)
let stream s = List.concat_map (fun c -> List.map (fun l -> (c, l)) s.loops) s.configs

let line (c : Core.Experiment.config) loop = function
  | Ok (m : Core.Metrics.loop_metrics) ->
      Printf.sprintf "%s|%s|%d|%d|%d" c.label (Ir.Loop.name loop) m.ideal_ii m.clustered_ii
        m.n_copies
  | Error (e : Verify.Stage_error.t) ->
      Printf.sprintf "%s|%s|error|%s" c.label (Ir.Loop.name loop) e.Verify.Stage_error.code

let compile (c : Core.Experiment.config) loop =
  match Core.Experiment.run_all ~jobs:1 ~loops:[ loop ] ~configs:[ c ] () with
  | [ { Core.Experiment.metrics = [ m ]; _ } ] -> Ok m
  | [ { Core.Experiment.failures = [ (_, e) ]; _ } ] -> Error e
  | _ -> failwith "run_all returned an unexpected shape"

(* Tables 1–2 at the default seed, recomputed from this run's compiles. *)
let check_tables s results =
  let per_config =
    List.map
      (fun (c : Core.Experiment.config) ->
        List.filter_map
          (fun (((c' : Core.Experiment.config), _), r) ->
            if c'.label = c.label then Result.to_option r else None)
          results)
      s.configs
  in
  let row f fmt = List.map (fun ms -> Printf.sprintf fmt (f ms)) per_config in
  let cmp name got want =
    Gate.check (got = want) "sweep: %s row is %s, EXPERIMENTS.md has %s" name
      (String.concat " " got) (String.concat " " want)
  in
  cmp "Table 1 clustered IPC" (row Core.Metrics.mean_ipc_clustered "%.1f") table1_ipc;
  cmp "Table 2 arithmetic" (row Core.Metrics.arithmetic_mean_degradation "%.0f") table2_arith;
  cmp "Table 2 harmonic" (row Core.Metrics.harmonic_mean_degradation "%.0f") table2_harm

let quality results =
  let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
  let fi = float_of_int in
  ( Measure.mean (List.map (fun (m : Core.Metrics.loop_metrics) -> m.degradation) ok),
    Measure.mean (List.map (fun (m : Core.Metrics.loop_metrics) -> fi m.n_copies) ok),
    100.0
    *. fi (List.length (List.filter (fun (m : Core.Metrics.loop_metrics) -> m.clustered_ii = m.ideal_ii) ok))
    /. fi (max 1 (List.length results)) )

let finish ~seed s ~results ~passes_lines =
  Gate.passes ~key:(Printf.sprintf "sweep-%d" seed) passes_lines;
  if seed = Inputs.paper_seed then check_tables s results

let run ~seed ~seconds ~warmup ~setups =
  let setup_times = List.init setups (fun _ -> snd (Measure.op (setup ~seed)) /. 1000.0) in
  let s = setup ~seed () in
  let ops = Array.of_list (stream s) in
  let extra =
    if not !Layers.double_rec_mii then None
    else begin
      Measure.say "sweep: doubling every Ddg.Minii.rec_mii call of every compile";
      Some
        (Array.map
           (fun ((c : Core.Experiment.config), l) -> Layers.extra_rec_mii_call ~machine:c.machine l)
           ops)
    end
  in
  for i = 0 to min warmup (Array.length ops) - 1 do
    let c, l = ops.(i) in
    ignore (compile c l)
  done;
  Measure.say "sweep: %d loops x %d configs = %d compiles per pass; %d warm-up compiles untimed"
    (List.length s.loops) (List.length s.configs) (Array.length ops) warmup;
  let once () =
    Array.to_list
      (Array.mapi
         (fun i (c, l) ->
           let r, ms =
             Measure.op (fun () ->
                 let r = compile c l in
                 (match extra with Some a -> a.(i) () | None -> ());
                 r)
           in
           (((c, l), r), ms))
         ops)
  in
  let passes, wall = Measure.passes ~seconds ~nominal:14.0 ~min_passes:2 ~once in
  let rss = Measure.peak_rss_mb None in
  let results = List.map fst (List.hd passes) in
  finish ~seed s ~results
    ~passes_lines:(List.map (List.map (fun (((c, l), r), _) -> line c l r)) passes);
  let failed =
    List.length (List.filter (function (_, Error _), _ -> true | _ -> false) (List.concat passes))
  in
  let degradation, copies, optimal = quality results in
  let metrics =
    Measure.end_to_end ~setup:setup_times ~times:(List.map (List.map snd) passes) ~wall_s:wall
      ~rss_mb:rss ~failed ~degradation ~copies
      ~optimal_pct:optimal ~what:"sweep"
  in
  (metrics, List.length passes * Array.length ops, failed)

(* Traced: every compile runs as the real Partition.Driver.pipeline call
   and again as its timed re-composition; the two must agree. *)
let traced ~seed =
  let s = setup ~seed () in
  let ops = stream s in
  let t = Layers.create () in
  let t0 = Measure.now () in
  let results =
    List.map
      (fun ((c : Core.Experiment.config), l) ->
        let real, agree = Layers.pipeline_checked t ~machine:c.machine l in
        Gate.check agree "sweep: re-composition of %s on %s differs from the real call"
          (Ir.Loop.name l) c.label;
        (c, l, Result.map Core.Metrics.of_result real))
      ops
  in
  let wall = Measure.now () -. t0 in
  finish ~seed s
    ~results:(List.map (fun (c, l, r) -> ((c, l), r)) results)
    ~passes_lines:[ List.map (fun (c, l, r) -> line c l r) results ];
  let failed = List.length (List.filter (fun (_, _, r) -> Result.is_error r) results) in
  (t, List.length ops, wall, failed)
