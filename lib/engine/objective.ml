type accumulator = {
  add : int -> unit;
  remove : int -> unit;
  value : unit -> float;
}

type t = {
  id : string;
      (* Kind plus every parameter that moves a score (the bucket count);
         never the workspace, which only holds scratch. *)
  score : task:Task.t -> Pool.t -> float;
  accumulate : (alpha:float -> float array -> accumulator) option;
      (* Fresh accumulator over a binary pool's qualities, by position. *)
}

let id t = t.id
let score t = t.score

let score_workers t ~alpha =
  let task = Task.binary ~alpha in
  fun jury -> t.score ~task (Pool.of_workers jury)

let check_labels ~what ~task pool =
  if Pool.labels pool <> Task.labels task then
    invalid_arg
      (Printf.sprintf "%s: pool has %d labels but task has %d" what
         (Pool.labels pool) (Task.labels task))

(* The one rule for which solves score incrementally: an accumulating
   objective on a binary pool.  [incremental] and [accumulator] both read
   it. *)
let accumulating t pool =
  match (t.accumulate, Pool.repr pool) with
  | Some make, Pool.Binary p -> Some (make, p)
  | _ -> None

let incremental t pool = Option.is_some (accumulating t pool)

let accumulator t ~task pool =
  Option.map
    (fun (make, p) ->
      check_labels ~what:"Engine.Objective.accumulator" ~task pool;
      make ~alpha:(Task.alpha task) (Workers.Pool.qualities p))
    (accumulating t pool)

let bv_bucket ?(num_buckets = Jq.Bucket.default_num_buckets) ?workspace () =
  {
    id = Printf.sprintf "BV/bucket/%d" num_buckets;
    score =
      (fun ~task pool ->
        if Pool.is_empty pool then Task.empty_score task
        else begin
          check_labels ~what:"Engine.Objective.bv_bucket" ~task pool;
          match Pool.repr pool with
          | Pool.Binary p ->
              Jq.Bucket.estimate ?workspace ~num_buckets
                ~alpha:(Task.alpha task) (Workers.Pool.qualities p)
          | Pool.Matrix jury ->
              Jq.Multiclass_jq.estimate_bv ?workspace ~num_buckets
                ~prior:(Task.prior task) jury
        end);
    accumulate = None;
  }

let bv_bucket_incremental ?(num_buckets = Jq.Bucket.default_num_buckets)
    ?workspace () =
  {
    (bv_bucket ~num_buckets ?workspace ()) with
    id = Printf.sprintf "BV/bucket-incr/%d" num_buckets;
    accumulate =
      Some
        (fun ~alpha qualities ->
          let acc =
            Jq.Incremental.create ~num_buckets:(2 * num_buckets) ~alpha ()
          in
          {
            add = (fun i -> Jq.Incremental.add_worker acc qualities.(i));
            remove = (fun i -> Jq.Incremental.remove_worker acc qualities.(i));
            value = (fun () -> Jq.Incremental.value acc);
          });
  }

let mv_closed =
  {
    id = "MV/closed";
    score =
      (fun ~task pool ->
        check_labels ~what:"Engine.Objective.mv_closed" ~task pool;
        match Pool.repr pool with
        | Pool.Binary p ->
            Jq.Mv_closed.jq ~alpha:(Task.alpha task)
              ~qualities:(Workers.Pool.qualities p)
        | Pool.Matrix _ ->
            invalid_arg "Engine.Objective.mv_closed: matrix pools unsupported");
    accumulate = None;
  }

let mv_closed_incremental =
  {
    mv_closed with
    id = "MV/closed-incr";
    accumulate =
      Some
        (fun ~alpha qualities ->
          let pb = Prob.Poisson_binomial.Incremental.create () in
          {
            add = (fun i -> Prob.Poisson_binomial.Incremental.add pb qualities.(i));
            remove =
              (fun i -> Prob.Poisson_binomial.Incremental.remove pb qualities.(i));
            value =
              (fun () ->
                Jq.Mv_closed.jq_from_tail ~alpha
                  ~n:(Prob.Poisson_binomial.Incremental.size pb)
                  ~tail:(Prob.Poisson_binomial.Incremental.tail_at_least pb));
          });
  }

type scored = { score : float; bound : float; flat_fallbacks : int }

let bv_bucket_scored ?num_buckets ?workspace () ~task pool =
  if Pool.is_empty pool then
    { score = Task.empty_score task; bound = 0.; flat_fallbacks = 0 }
  else begin
    check_labels ~what:"Engine.Objective.bv_bucket_scored" ~task pool;
    match Pool.repr pool with
    | Pool.Binary p ->
        let s =
          Jq.Bucket.estimate_stats ?workspace ?num_buckets
            ~alpha:(Task.alpha task) (Workers.Pool.qualities p)
        in
        {
          score = s.Jq.Bucket.value;
          bound = s.Jq.Bucket.error_bound;
          flat_fallbacks = 0;
        }
    | Pool.Matrix jury ->
        let s =
          Jq.Multiclass_jq.estimate_bv_stats ?workspace ?num_buckets
            ~prior:(Task.prior task) jury
        in
        {
          score = s.Jq.Multiclass_jq.value;
          bound = s.Jq.Multiclass_jq.error_bound;
          flat_fallbacks = s.Jq.Multiclass_jq.fallbacks;
        }
  end

let bv_exact_capped ?cap () =
  {
    id = "BV/exact";
    score =
      (fun ~task pool ->
        if Pool.is_empty pool then Task.empty_score task
        else begin
          check_labels ~what:"Engine.Objective.bv_exact" ~task pool;
          match Pool.repr pool with
          | Pool.Binary p -> (
              let alpha = Task.alpha task
              and qualities = Workers.Pool.qualities p in
              match cap with
              | None -> Jq.Exact.jq_optimal ~alpha ~qualities
              | Some cap -> Jq.Exact.jq_optimal_capped ~cap ~alpha ~qualities)
          | Pool.Matrix jury ->
              Jq.Multiclass_jq.jq_exact ?cap Voting.Multiclass.bayesian
                ~prior:(Task.prior task) ~jury
        end);
    accumulate = None;
  }

let bv_exact = bv_exact_capped ()
