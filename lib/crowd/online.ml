open Voting

type policy = By_quality | By_cost | Random_order | By_information_gain

type outcome = {
  answer : Vote.t;
  posterior_no : float;
  votes_used : int;
  cost : float;
  asked : int list;
  predicted_jq : float;
}

let entropy p =
  let term x = if x <= 0. then 0. else -.x *. log x in
  term p +. term (1. -. p)

let posterior_entropy p =
  let acc = ref 0. in
  Array.iter (fun x -> if x > 0. then acc := !acc -. (x *. log x)) p;
  !acc

(* One Bayesian update: a quality-q worker voting v multiplies the odds. *)
let update_posterior ~posterior_no ~quality vote =
  let p = posterior_no in
  match (vote : Vote.t) with
  | Vote.No ->
      let m = (p *. quality) +. ((1. -. p) *. (1. -. quality)) in
      if m = 0. then p else p *. quality /. m
  | Vote.Yes ->
      let m = (p *. (1. -. quality)) +. ((1. -. p) *. quality) in
      if m = 0. then p else p *. (1. -. quality) /. m

let expected_entropy_gain ~posterior_no ~quality =
  let p = posterior_no in
  let m_no = (p *. quality) +. ((1. -. p) *. (1. -. quality)) in
  let m_yes = 1. -. m_no in
  let p_after_no = update_posterior ~posterior_no:p ~quality Vote.No in
  let p_after_yes = update_posterior ~posterior_no:p ~quality Vote.Yes in
  let expected = (m_no *. entropy p_after_no) +. (m_yes *. entropy p_after_yes) in
  Float.max 0. (entropy p -. expected)

let expected_entropy_gain_vector ~posterior ~confusion =
  let l = Array.length posterior in
  if l < 2 then invalid_arg "Online.expected_entropy_gain_vector: < 2 labels";
  if Workers.Confusion.labels confusion <> l then
    invalid_arg "Online.expected_entropy_gain_vector: label count mismatch";
  match (l, Workers.Confusion.symmetric_quality confusion) with
  | 2, Some q -> expected_entropy_gain ~posterior_no:posterior.(0) ~quality:q
  | _ ->
      let expected = ref 0. in
      let cond = Array.make l 0. in
      for v = 0 to l - 1 do
        let m = ref 0. in
        for j = 0 to l - 1 do
          let joint =
            posterior.(j) *. Workers.Confusion.prob confusion ~truth:j ~vote:v
          in
          cond.(j) <- joint;
          m := !m +. joint
        done;
        if !m > 0. then begin
          for j = 0 to l - 1 do
            cond.(j) <- cond.(j) /. !m
          done;
          expected := !expected +. (!m *. posterior_entropy cond)
        end
      done;
      Float.max 0. (posterior_entropy posterior -. !expected)

let pick rng policy ~posterior_no remaining =
  let affordable = remaining in
  match policy with
  | By_quality ->
      fst
        (List.fold_left
           (fun (best, bq) (i, w) ->
             let q = Workers.Worker.quality w in
             if q > bq then (Some (i, w), q) else (best, bq))
           (None, neg_infinity) affordable)
  | By_cost ->
      fst
        (List.fold_left
           (fun (best, bc) (i, w) ->
             let c = Workers.Worker.cost w in
             if c < bc then (Some (i, w), c) else (best, bc))
           (None, infinity) affordable)
  | Random_order ->
      let arr = Array.of_list affordable in
      if Array.length arr = 0 then None else Some (Prob.Rng.choose rng arr)
  | By_information_gain ->
      fst
        (List.fold_left
           (fun (best, bg) (i, w) ->
             let gain =
               expected_entropy_gain ~posterior_no
                 ~quality:(Workers.Worker.quality w)
               /. Float.max 1e-9 (Workers.Worker.cost w)
             in
             if gain > bg then (Some (i, w), gain) else (best, bg))
           (None, neg_infinity) affordable)

let run rng ?(policy = By_quality) ~confidence ~budget ~alpha ~truth pool =
  if confidence <= 0.5 || confidence > 1. then
    invalid_arg "Online.run: confidence outside (0.5, 1]";
  if budget < 0. || Float.is_nan budget then invalid_arg "Online.run: budget";
  if alpha < 0. || alpha > 1. then invalid_arg "Online.run: alpha";
  let workers = Workers.Pool.to_array pool in
  let remaining =
    ref (List.mapi (fun i w -> (i, w)) (Array.to_list workers))
  in
  let posterior = ref alpha in
  let spent = ref 0. in
  let asked = ref [] in
  let votes_used = ref 0 in
  let anytime_jq = Jq.Incremental.create ~alpha () in
  let confident () = Float.max !posterior (1. -. !posterior) >= confidence in
  let continue = ref true in
  while !continue && not (confident ()) do
    let affordable =
      List.filter
        (fun (_, w) -> !spent +. Workers.Worker.cost w <= budget +. 1e-9)
        !remaining
    in
    match pick rng policy ~posterior_no:!posterior affordable with
    | None -> continue := false
    | Some (i, w) ->
        remaining := List.filter (fun (j, _) -> j <> i) !remaining;
        let quality = Workers.Worker.quality w in
        let vote = Simulate.vote rng ~truth ~quality in
        posterior := update_posterior ~posterior_no:!posterior ~quality vote;
        spent := !spent +. Workers.Worker.cost w;
        asked := Workers.Worker.id w :: !asked;
        Jq.Incremental.add_worker anytime_jq quality;
        incr votes_used
  done;
  {
    answer = (if !posterior >= 0.5 then Vote.No else Vote.Yes);
    posterior_no = !posterior;
    votes_used = !votes_used;
    cost = !spent;
    asked = List.rev !asked;
    predicted_jq = Jq.Incremental.value anytime_jq;
  }

type summary = {
  tasks : int;
  accuracy : float;
  mean_cost : float;
  mean_votes : float;
}

let simulate_many rng ?policy ~confidence ~budget ~alpha ~tasks pool =
  if tasks <= 0 then invalid_arg "Online.simulate_many: tasks <= 0";
  let correct = ref 0 in
  let cost_acc = Prob.Kahan.create () in
  let votes_acc = ref 0 in
  for _ = 1 to tasks do
    let truth = Simulate.sample_truth rng ~alpha in
    let o = run rng ?policy ~confidence ~budget ~alpha ~truth pool in
    if Vote.equal o.answer truth then incr correct;
    Prob.Kahan.add cost_acc o.cost;
    votes_acc := !votes_acc + o.votes_used
  done;
  let t = float_of_int tasks in
  {
    tasks;
    accuracy = float_of_int !correct /. t;
    mean_cost = Prob.Kahan.total cost_acc /. t;
    mean_votes = float_of_int !votes_acc /. t;
  }
