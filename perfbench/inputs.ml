(* The benchmark's input suite for a seed.

   Workload.Suite.loops ~seed keeps the 80 kernel variants and draws 131
   fresh loops from the seed. Compile cost grows steeply with loop size
   and with recurrences (RecMII is about half of a compile), and the
   exact solver's cost with register count, so a handful of draws would
   decide a run's totals and two seeds would differ by more than any
   change worth measuring. Here each generated slot of the paper's suite
   (seed 1995) is instead filled by the first loop the seed generates
   with the same shape: operation count within 5%, the same number of
   loop-carried registers, and the same register count for loops small
   enough for the exact study (at most 16 registers), more than 16 for
   the rest. The content
   of every generated loop still comes from the seed; only its scale is
   pinned to the paper suite. At seed 1995 the first candidate of every
   slot matches, so the suite is exactly the one behind EXPERIMENTS.md. *)

let paper_seed = 1995
let exact_regs = 16

let regs loop = Ir.Vreg.Set.cardinal (Ir.Loop.vregs loop)

(* Registers read before the body (re)defines them: the values a
   reduction or recurrence carries into the next iteration. *)
let carried loop =
  let defs = Ir.Loop.defs_of loop in
  let step (seen, acc) op =
    let acc =
      List.fold_left
        (fun acc u ->
          if Ir.Vreg.Map.mem u defs && not (Ir.Vreg.Set.mem u seen) then Ir.Vreg.Set.add u acc
          else acc)
        acc (Ir.Op.uses op)
    in
    (List.fold_left (fun s d -> Ir.Vreg.Set.add d s) seen (Ir.Op.defs op), acc)
  in
  let _, acc = List.fold_left step (Ir.Vreg.Set.empty, Ir.Vreg.Set.empty) (Ir.Loop.ops loop) in
  Ir.Vreg.Set.cardinal acc

(* Candidates per slot before settling for the nearest shape. The rarest
   slot of a seed needs 5k-30k candidates for an exact match, and that
   one slot would decide how long set-up takes (twice as long at one
   seed as at another); capped, set-up work is about the same at every
   seed, and a capped slot differs from its paper shape by a register or
   two. *)
let max_tries = 5_000

let suite ~seed =
  let kernels = Workload.Suite.kernels () in
  let slots = Workload.Suite.size - List.length kernels in
  let fill i =
    let paper = Workload.Loopgen.generate ~seed:paper_seed ~index:i () in
    let size = Ir.Loop.size paper and carried_p = carried paper and regs_p = regs paper in
    let tolerance = size / 20 in
    (* Cheapest test first: most candidates fail on size alone. *)
    let distance l =
      let ds = max 0 (abs (Ir.Loop.size l - size) - tolerance) in
      if ds > 0 then max_int / 2
      else
        (100 * abs (carried l - carried_p))
        +
        if regs_p <= exact_regs then abs (regs l - regs_p)
        else if regs l <= exact_regs then 1
        else 0
    in
    let rec search k best best_d =
      if best_d = 0 || k = max_tries then best
      else
        let l = Workload.Loopgen.generate ~seed ~index:(i + (k * slots)) () in
        let d = distance l in
        if d < best_d then search (k + 1) l d else search (k + 1) best best_d
    in
    let first = Workload.Loopgen.generate ~seed ~index:i () in
    search 1 first (distance first)
  in
  kernels @ List.init slots fill
