type point = { cost : float; quality : float; jury : Workers.Pool.t }

(* Keep only Pareto-dominant points from (cost, quality) candidates:
   sort by cost then sweep, keeping strictly improving quality. *)
let pareto candidates =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.cost b.cost with
        | 0 -> compare b.quality a.quality
        | c -> c)
      candidates
  in
  let rec sweep best acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if p.quality > best +. 1e-12 then sweep p.quality (p :: acc) rest
        else sweep best acc rest
  in
  sweep neg_infinity [] sorted

let exact objective ~alpha pool =
  let score = Engine.Objective.score_workers objective ~alpha in
  let candidates =
    Seq.fold_left
      (fun acc jury ->
        {
          cost = Budget.jury_cost jury;
          quality = score jury;
          jury;
        }
        :: acc)
      []
      (Workers.Pool.subsets pool)
  in
  pareto candidates

let sampled ~solve ~budgets pool =
  let candidates =
    List.map
      (fun budget ->
        let r = solve ~budget pool in
        {
          cost = Budget.jury_cost r.Solver.jury;
          quality = r.Solver.score;
          jury = r.Solver.jury;
        })
      budgets
  in
  pareto candidates

let quality_at points ~budget =
  List.fold_left
    (fun best p -> if p.cost <= budget +. 1e-9 then Float.max best p.quality else best)
    0. points

let cheapest_for points ~quality =
  List.find_opt (fun p -> p.quality >= quality -. 1e-12) points

let pp ppf points =
  Format.fprintf ppf "%-10s  %-8s  %s@." "Cost" "Quality" "Jury";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10g  %-8s  %a@." p.cost
        (Printf.sprintf "%.2f%%" (100. *. p.quality))
        Workers.Pool.pp p.jury)
    points
