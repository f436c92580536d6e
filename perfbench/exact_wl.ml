(* The exact study: Exact.Gap.one (greedy leg plus greedy-seeded
   branch-and-bound at the default node budget) on every seeded-suite
   loop with at most 16 symbolic registers, at the three embedded
   geometries — the ≤12-register slice of Table 3 plus the next tier,
   where the search rather than leaf evaluation dominates. *)

let max_regs = 16

(* Table 3 of EXPERIMENTS.md: proven-optimal counts of the ≤12 slice at
   the default seed, per geometry. *)
let table3_optimal = [ ("2x8", 47); ("4x4", 45); ("8x2", 39) ]

let per_layer =
  [ ("exact.greedy_ms", "ms"); ("exact.solve_ms", "ms"); ("exact.nodes", "count");
    ("exact.leaves", "count"); ("exact.pruned", "count"); ("exact.backjumps", "count");
    ("exact.nodes_per_s", "1/s"); ("exact.prune_ratio", "ratio"); ("exact.optimal", "count");
    ("exact.bound", "count"); ("exact.exhausted", "count") ]

let n_regs loop = Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop)

let setup ~seed () =
  let slice = List.filter (fun l -> n_regs l <= max_regs) (Inputs.suite ~seed) in
  List.concat_map
    (fun (label, clusters) ->
      let machine = Mach.Machine.paper_clustered ~clusters ~copy_model:Mach.Machine.Embedded in
      List.map (fun l -> (label, machine, l)) slice)
    Exact.Gap.geometries

let one machine loop = Exact.Gap.one ~cancel:Engine.Cancel.never ~machine loop

let line label (e : Exact.Gap.entry) =
  let s = e.solve in
  let st = s.Exact.Solve.stats in
  Printf.sprintf "%s|%s|%d|%d|%s|%d|%d|%d|%d|%d|%d" label e.loop_name e.greedy_ii e.greedy_copies
    (Exact.Solve.status_name s.Exact.Solve.status)
    s.Exact.Solve.best_mii s.Exact.Solve.best_copies st.Exact.Search.nodes st.Exact.Search.leaves
    st.Exact.Search.pruned st.Exact.Search.backjumps

let is_optimal (e : Exact.Gap.entry) =
  match e.solve.Exact.Solve.status with Exact.Solve.Optimal _ -> true | _ -> false

let finish ~seed entries ~passes_lines =
  Gate.passes ~key:(Printf.sprintf "exact-%d" seed) passes_lines;
  if seed = Inputs.paper_seed then
    List.iter
      (fun (label, want) ->
        let got =
          List.length
            (List.filter
               (fun (l, (e : Exact.Gap.entry)) ->
                 l = label && e.n_regs <= Exact.Solve.slice_max_vregs && is_optimal e)
               entries)
        in
        Gate.check (got = want) "exact: %s proves %d of the <=12 slice optimal, Table 3 has %d"
          label got want)
      table3_optimal

let quality entries =
  let fi = float_of_int in
  let es = List.map snd entries in
  let greedy_ok = List.filter (fun (e : Exact.Gap.entry) -> e.greedy_ii > 0) es in
  ( Measure.mean
      (List.map
         (fun (e : Exact.Gap.entry) -> 100.0 *. fi e.greedy_ii /. fi e.solve.Exact.Solve.best_mii)
         greedy_ok),
    Measure.mean (List.map (fun (e : Exact.Gap.entry) -> fi e.solve.Exact.Solve.best_copies) es),
    100.0 *. fi (List.length (List.filter is_optimal es)) /. fi (max 1 (List.length es)) )

let run ~seed ~seconds ~warmup ~setups =
  let setup_times = List.init setups (fun _ -> snd (Measure.op (setup ~seed)) /. 1000.0) in
  let ops = Array.of_list (setup ~seed ()) in
  for i = 0 to min warmup (Array.length ops) - 1 do
    let _, m, l = ops.(i) in
    ignore (one m l)
  done;
  Measure.say "exact: %d solves per pass (loops with <= %d registers x 3 geometries); %d warm-up solves untimed"
    (Array.length ops) max_regs warmup;
  let failed = ref 0 in
  (* A pass keeps its result lines and times; only the first pass keeps
     its entries, so peak_rss_mb does not grow with the pass count. *)
  let first = ref None in
  let once () =
    let results =
      List.map
        (fun (label, m, l) ->
          let r, ms = Measure.op (fun () -> try Ok (one m l) with e -> Error e) in
          match r with
          | Ok e -> (Some (label, e), ms)
          | Error ex ->
              incr failed;
              Gate.fail "exact: %s on %s raised %s" (Ir.Loop.name l) label (Printexc.to_string ex);
              (None, ms))
        (Array.to_list ops)
    in
    let entries = List.filter_map fst results in
    if !first = None then first := Some entries;
    (List.map (fun (l, e) -> line l e) entries, List.map snd results)
  in
  let passes, wall = Measure.passes ~seconds ~nominal:3.5 ~min_passes:3 ~once in
  let rss = Measure.peak_rss_mb None in
  let entries = Option.get !first in
  finish ~seed entries ~passes_lines:(List.map fst passes);
  let degradation, copies, optimal = quality entries in
  let metrics =
    Measure.end_to_end ~setup:setup_times ~times:(List.map snd passes) ~wall_s:wall
      ~rss_mb:rss ~failed:!failed ~degradation ~copies
      ~optimal_pct:optimal ~what:"exact"
  in
  (metrics, List.length passes * Array.length ops, !failed)

(* Traced: Gap.one as the real call, then its two legs timed apart — the
   greedy pipeline (itself re-composed layer by layer) and Solve.solve
   seeded with the greedy assignment. The composition must equal the
   real call, field for field. *)
let traced ~seed =
  let ops = setup ~seed () in
  let t = Layers.create () in
  let t0 = Measure.now () in
  let entries =
    List.map
      (fun (label, machine, loop) ->
        let real = Layers.timed t "exact.one" (fun () -> one machine loop) in
        let greedy, agree = Layers.pipeline_checked t ~machine loop in
        Gate.check agree "exact: greedy re-composition of %s on %s differs from the real call"
          (Ir.Loop.name loop) label;
        let greedy_ii, greedy_copies, seed_assignment =
          match greedy with
          | Ok r ->
              ( r.Partition.Driver.clustered.Sched.Modulo.ii,
                r.Partition.Driver.n_copies,
                Some r.Partition.Driver.assignment )
          | Error _ -> (0, 0, None)
        in
        let solve =
          Layers.timed t "exact.solve" (fun () ->
              Exact.Solve.solve ?seed_assignment ~machine loop)
        in
        let st = solve.Exact.Solve.stats in
        Layers.count t "exact.nodes" st.Exact.Search.nodes;
        Layers.count t "exact.leaves" st.Exact.Search.leaves;
        Layers.count t "exact.pruned" st.Exact.Search.pruned;
        Layers.count t "exact.backjumps" st.Exact.Search.backjumps;
        Layers.count t
          (match solve.Exact.Solve.status with
          | Exact.Solve.Optimal _ -> "exact.optimal"
          | Exact.Solve.Bound _ -> "exact.bound"
          | Exact.Solve.Budget_exhausted _ -> "exact.exhausted")
          1;
        let composed =
          { Exact.Gap.loop_name = Ir.Loop.name loop; n_regs = solve.Exact.Solve.n_regs;
            greedy_ii; greedy_copies; solve }
        in
        Gate.check (line label composed = line label real)
          "exact: greedy + solve on %s at %s differs from Gap.one" (Ir.Loop.name loop) label;
        (label, real))
      ops
  in
  let wall = Measure.now () -. t0 in
  finish ~seed entries ~passes_lines:[ List.map (fun (l, e) -> line l e) entries ];
  let n = List.length ops in
  let per name = 1000.0 *. Layers.time_of t name /. float_of_int (max 1 n) in
  let c name = float_of_int (Layers.count_of t name) in
  let metrics =
    Layers.pipeline_metrics t ~ops:n
    @ [
        Measure.metric "exact.greedy_ms" "ms" (per "partition.pipeline");
        Measure.metric "exact.solve_ms" "ms" (per "exact.solve");
        Measure.metric "exact.nodes_per_s" "1/s" (c "exact.nodes" /. Layers.time_of t "exact.solve");
        Measure.metric "exact.prune_ratio" "ratio" (c "exact.pruned" /. Float.max 1.0 (c "exact.nodes"));
        Measure.metric "trace.overhead_ratio" "ratio" (wall /. Layers.time_of t "exact.one");
      ]
    @ List.map
        (fun n -> Measure.metric n "count" (c n))
        [ "exact.nodes"; "exact.leaves"; "exact.pruned"; "exact.backjumps"; "exact.optimal";
          "exact.bound"; "exact.exhausted" ]
  in
  (metrics, n, 0)
