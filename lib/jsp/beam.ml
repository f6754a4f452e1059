let default_width = 32

(* A partial jury: members in reverse consideration order plus cached cost
   and objective score. *)
type state = { members : Workers.Worker.t list; cost : float; score : float }

let density w =
  let q =
    Float.max 0.5 (Float.min 0.99 (Workers.Worker.quality w))
  in
  Prob.Log_space.logit q /. Float.max 1e-9 (Workers.Worker.cost w)

let solve ?(width = default_width) objective ~alpha ~budget pool =
  if width <= 0 then invalid_arg "Beam.solve: width <= 0";
  Budget.validate budget;
  let workers = Workers.Pool.to_array pool in
  Array.sort (fun a b -> compare (density b) (density a)) workers;
  let evaluations = ref 0 in
  let score_jury = Engine.Objective.score_workers objective ~alpha in
  let score members =
    incr evaluations;
    score_jury (Workers.Pool.of_list (List.rev members))
  in
  let empty = { members = []; cost = 0.; score = score [] } in
  let best = ref empty in
  let remember s = if s.score > !best.score then best := s in
  let step beam w =
    let c = Workers.Worker.cost w in
    let extended =
      List.filter_map
        (fun s ->
          if s.cost +. c <= budget +. 1e-9 then begin
            let members = w :: s.members in
            let s' = { members; cost = s.cost +. c; score = score members } in
            remember s';
            Some s'
          end
          else None)
        beam
    in
    (* Keep the top [width] of skip-states and take-states combined; dedup
       identical (cost, score) pairs, which are almost surely the same jury
       quality-wise and only waste beam slots. *)
    let merged = List.sort (fun a b -> compare b.score a.score) (beam @ extended) in
    let rec dedup seen = function
      | [] -> []
      | s :: rest ->
          let key = (Float.round (s.cost *. 1e9), Float.round (s.score *. 1e12)) in
          if List.mem key seen then dedup seen rest
          else s :: dedup (key :: seen) rest
    in
    let rec take k = function
      | [] -> []
      | s :: rest -> if k = 0 then [] else s :: take (k - 1) rest
    in
    take width (dedup [] merged)
  in
  let _final = Array.fold_left step [ empty ] workers in
  {
    Solver.jury = Workers.Pool.of_list (List.rev !best.members);
    score = !best.score;
    evaluations = !evaluations;
    cache = None;
  }
