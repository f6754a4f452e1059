type params = {
  t_initial : float;
  epsilon : float;
  cooling : float;
  moves_per_temp : int option;
  keep_best : bool;
}

let default_params =
  {
    t_initial = 1.0;
    epsilon = 1e-8;
    cooling = 2.0;
    moves_per_temp = None;
    keep_best = true;
  }

let validate_params p =
  if p.epsilon <= 0. then invalid_arg "Annealing: epsilon <= 0";
  if p.cooling <= 1. then invalid_arg "Annealing: cooling <= 1";
  if p.t_initial < p.epsilon then invalid_arg "Annealing: t_initial < epsilon"

(* Mutable search state over the candidate pool.  [idx] is a permutation
   of worker indices with the selected ones occupying the prefix
   [0, n_sel); [pos] is its inverse.  A uniformly random selected (or
   unselected) partner is then one array read — the hot loop allocates
   nothing. *)
type state = {
  pool : Engine.Pool.t;
  costs : float array;
  selected : bool array;
  idx : int array;
  pos : int array;
  mutable n_sel : int;
  mutable spent : float;
  mutable score : float;
  mutable evaluations : int;
}

let make_state pool =
  let n = Engine.Pool.size pool in
  {
    pool;
    costs = Engine.Pool.costs pool;
    selected = Array.make n false;
    idx = Array.init n Fun.id;
    pos = Array.init n Fun.id;
    n_sel = 0;
    spent = 0.;
    score = 0.;
    evaluations = 0;
  }

(* Move worker [i] to slot [target] of [idx] by swapping with its occupant. *)
let relocate st i target =
  let p = st.pos.(i) in
  let j = st.idx.(target) in
  st.idx.(target) <- i;
  st.idx.(p) <- j;
  st.pos.(i) <- target;
  st.pos.(j) <- p

let mark_selected st i =
  relocate st i st.n_sel;
  st.n_sel <- st.n_sel + 1;
  st.selected.(i) <- true

let mark_unselected st i =
  relocate st i (st.n_sel - 1);
  st.n_sel <- st.n_sel - 1;
  st.selected.(i) <- false

let random_selected st rng =
  if st.n_sel = 0 then None else Some st.idx.(Prob.Rng.int rng st.n_sel)

let random_unselected st rng =
  let m = Array.length st.costs - st.n_sel in
  if m = 0 then None else Some st.idx.(st.n_sel + Prob.Rng.int rng m)

let cost st i = st.costs.(i)

(* Materialized juries are only built off the hot path: at the initial
   evaluation, on cache misses, and when a new best is remembered. *)
let current_jury st = Engine.Pool.sub st.pool st.selected

let jury_without_with st ~out ~into =
  let flags = Array.copy st.selected in
  flags.(out) <- false;
  flags.(into) <- true;
  Engine.Pool.sub st.pool flags

(* The annealing schedule of Algorithm 3, shared by both scoring modes.
   [score_current] scores the selection just after a state change;
   [probe_swap] returns the candidate score of flipping (out, into) plus
   whether the scorer already mutated itself to that state (incremental
   cache misses do); [commit_swap]/[undo_probe] reconcile the scorer with
   the accept/reject decision. *)
let run params st ~rng ~budget ~score_current ~probe_swap ~commit_add
    ~commit_swap ~undo_probe =
  let n = Array.length st.costs in
  st.score <- score_current ();
  let best_jury = ref (current_jury st) in
  let best_score = ref st.score in
  let remember () =
    if st.score > !best_score then begin
      best_score := st.score;
      best_jury := current_jury st
    end
  in
  let moves = match params.moves_per_temp with Some m -> m | None -> n in
  let temperature = ref params.t_initial in
  while !temperature >= params.epsilon && n > 0 do
    for _ = 1 to moves do
      let r = Prob.Rng.int rng n in
      if (not st.selected.(r)) && st.spent +. cost st r <= budget +. 1e-9 then begin
        (* Lemma 1: a free addition can only help; accept unconditionally. *)
        commit_add r;
        mark_selected st r;
        st.spent <- st.spent +. cost st r;
        st.score <- score_current ()
      end
      else begin
        (* Algorithm 4: pair r with a random opposite-side partner and
           accept by the Boltzmann rule. *)
        let partner =
          if st.selected.(r) then random_unselected st rng
          else random_selected st rng
        in
        match partner with
        | None -> ()
        | Some k ->
            let out, into = if st.selected.(r) then (r, k) else (k, r) in
            if st.spent -. cost st out +. cost st into <= budget +. 1e-9 then begin
              let candidate_score, mutated = probe_swap ~out ~into in
              let delta = candidate_score -. st.score in
              let accept =
                delta >= 0.
                || Prob.Rng.unit_float rng < exp (delta /. !temperature)
              in
              if accept then begin
                commit_swap ~out ~into ~mutated;
                mark_unselected st out;
                mark_selected st into;
                st.spent <- st.spent -. cost st out +. cost st into;
                st.score <- candidate_score
              end
              else if mutated then undo_probe ~out ~into
            end
      end;
      remember ()
    done;
    temperature := !temperature /. params.cooling
  done;
  if params.keep_best then (!best_jury, !best_score)
  else (current_jury st, st.score)

(* A caller-owned memo table ([?memo]) survives across solves.  It must
   have been created with [~n:(Pool.size pool)] and serve one pool; the
   salt keeps apart every solve whose scores could disagree. *)
let memo_table ~cache ~memo ~n =
  match memo with
  | Some _ as m -> m
  | None -> if cache then Some (Objective_cache.create ~n ()) else None

(* A from-scratch score is a pure function of (objective, task, jury), so
   those two pin the key space and every such solve over one pool shares
   it, whatever its budget, RNG or params.  An accumulator's values are
   path-dependent, so its solves also fold in the budget and the RNG
   state, read before the schedule draws: [Rng.fingerprint] identifies the
   whole future stream, and with the budget it pins the trajectory. *)
let solve_salt ~objective ~task ~budget ~rng ~incremental =
  let pure =
    Printf.sprintf "%s|%s" (Engine.Objective.id objective)
      (Engine.Task.fingerprint task)
  in
  Digest.string
    (if incremental then
       Printf.sprintf "%s|%Lx|%s" pure (Int64.bits_of_float budget)
         (Prob.Rng.fingerprint rng)
     else pure)

let default_objective ?num_buckets () =
  Engine.Objective.bv_bucket_incremental ?num_buckets ()

let solve_engine ?(params = default_params) ?objective ?num_buckets
    ?(cache = true) ?memo ~rng ~task ~budget pool =
  Budget.validate budget;
  validate_params params;
  if Engine.Pool.labels pool <> Engine.Task.labels task then
    invalid_arg "Annealing.solve_engine: pool and task label counts differ";
  let objective =
    match objective with
    | Some o -> o
    | None -> default_objective ?num_buckets ()
  in
  let st = make_state pool in
  let memo = memo_table ~cache ~memo ~n:(Engine.Pool.size pool) in
  (* [result.cache] counts this solve alone, also on a warm table. *)
  let since = Option.map (fun c -> (c, Objective_cache.stats c)) memo in
  let accumulator = Engine.Objective.accumulator objective ~task pool in
  let salt =
    solve_salt ~objective ~task ~budget ~rng
      ~incremental:(Option.is_some accumulator)
  in
  let memoized key_of eval =
    match memo with
    | None -> eval ()
    | Some c -> Objective_cache.find_or_eval c (key_of c) eval
  in
  let key c = Objective_cache.key ~salt c st.selected in
  let key_swapped ~out ~into c =
    Objective_cache.key_swapped ~salt c st.selected ~out ~into
  in
  let from_scratch jury =
    st.evaluations <- st.evaluations + 1;
    Engine.Objective.score objective ~task jury
  in
  let jury, score =
    match accumulator with
    | None ->
        let score_current () =
          memoized key (fun () -> from_scratch (current_jury st))
        in
        let probe_swap ~out ~into =
          ( memoized (key_swapped ~out ~into) (fun () ->
                from_scratch (jury_without_with st ~out ~into)),
            false )
        in
        run params st ~rng ~budget ~score_current ~probe_swap
          ~commit_add:(fun _ -> ())
          ~commit_swap:(fun ~out:_ ~into:_ ~mutated:_ -> ())
          ~undo_probe:(fun ~out:_ ~into:_ -> ())
    | Some acc ->
        let value () =
          st.evaluations <- st.evaluations + 1;
          acc.value ()
        in
        (* The accumulator always mirrors the *selection*, except
           transiently inside a swap probe: a cache miss mutates it to the
           candidate state (that is how the candidate is scored at all), and
           the accept/reject outcome either keeps the mutation or rolls it
           back. *)
        let mutate_to ~out ~into =
          acc.remove out;
          acc.add into
        in
        let probe_swap ~out ~into =
          let mutated = ref false in
          let v =
            memoized (key_swapped ~out ~into) (fun () ->
                mutated := true;
                mutate_to ~out ~into;
                value ())
          in
          (v, !mutated)
        in
        let jury, _incremental_score =
          run params st ~rng ~budget
            ~score_current:(fun () -> memoized key value)
            ~probe_swap ~commit_add:acc.add
            ~commit_swap:(fun ~out ~into ~mutated ->
              if not mutated then mutate_to ~out ~into)
            ~undo_probe:(fun ~out ~into -> mutate_to ~out:into ~into:out)
        in
        (* Report the jury on the standard scale: one from-scratch
           evaluation keeps scores comparable across objectives and solvers
           (the incremental estimate differs within the combined error
           bounds). *)
        (jury, from_scratch jury)
  in
  {
    Solver.jury;
    score;
    evaluations = st.evaluations;
    cache =
      Option.map (fun (c, before) -> Objective_cache.stats_since c before) since;
  }
