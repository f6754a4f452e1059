(* [Jq.Incremental] with every convolution and deconvolution pass over
   all 2*span+1 cells of the key window, including the keys of the parity
   no mass can reach.  Tests apply the same operations to both and check
   that every value, bound and counter agrees bit for bit. *)

type entry = { bucket : int; q : float }

type t = {
  delta : float;              (* Fixed bucket width: phi(0.99) / num_buckets. *)
  upper : float;              (* The global logit cap phi(0.99). *)
  num_buckets : int;
  mutable dp : float array;   (* Mass at key k lives at dp.(k + cap). *)
  mutable scratch : float array;  (* Swap buffer for convolution passes. *)
  mutable cap : int;          (* Center offset; arrays have 2*cap+1 cells. *)
  mutable span : int;         (* Current key support: [-span, span]. *)
  mutable pos : float;        (* Σ_{k>0} dp[k] + dp[0]/2, maintained during
                                 each convolution pass so [value] is O(1). *)
  mutable n : int;            (* Jury size: adds minus removes, excluding the prior. *)
  mutable coins : int;        (* q = 0.5 members: never convolved. *)
  mutable certain_workers : int;  (* q ∈ {0, 1} members: JQ = 1 while any is present. *)
  mutable highs : float list; (* q > 0.99 members: floor the value instead of
                                 bucketing a near-unbounded logit (§4.4). *)
  mutable entries : entry list;   (* Convolved (or pending) logits, newest first. *)
  mutable stale : bool;       (* Map diverged from [entries]; rebuild before reading. *)
  mutable removals : int;     (* Deconvolutions since the last rebuild. *)
  mutable rebuilds : int;
  alpha : float;
  prior : entry option;       (* The Theorem-3 pseudo-worker, when alpha /= 0.5. *)
  prior_high : float option;  (* ...unless the prior itself exceeds the cap. *)
  prior_certain : bool;
}

let rebuild_period = 512

(* Reinterpretation first (sub-0.5 workers flip), then bucketize against the
   fixed width.  Only called for reinterpreted q <= 0.99, so the top bucket
   is exactly num_buckets. *)
let fold_quality ~delta quality =
  let q = Float.max quality (1. -. quality) in
  let phi = Prob.Log_space.logit q in
  { bucket = int_of_float (Float.ceil ((phi /. delta) -. 0.5)); q }

let certain t = t.prior_certain || t.certain_workers > 0

let convolved t =
  List.length t.entries + match t.prior with Some _ -> 1 | None -> 0

(* The Lemma-1 floor: BV dominates both the prior-only strategy and any
   single-member dictator, so JQ >= max(alpha, 1-alpha) and JQ >= q for
   every (reinterpreted) member quality q.  Only members above the 0.99
   bucketing cap contribute here — everyone else is convolved. *)
let floor_value t =
  let hq = List.fold_left Float.max 0. t.highs in
  let hq = match t.prior_high with Some q -> Float.max hq q | None -> hq in
  Float.max hq (Float.max t.alpha (1. -. t.alpha))

let has_high t = t.highs <> [] || t.prior_high <> None

let reset_map t =
  Array.fill t.dp 0 (Array.length t.dp) 0.;
  t.dp.(t.cap) <- 1.0;
  t.span <- 0;
  t.pos <- 0.5

(* Make room for a support of [span] keys on either side of 0. *)
let ensure_cap t span =
  if span > t.cap then begin
    let cap = max span (2 * t.cap) in
    let dp = Array.make ((2 * cap) + 1) 0. in
    Array.blit t.dp 0 dp (cap - t.cap) ((2 * t.cap) + 1);
    t.dp <- dp;
    t.scratch <- Array.make ((2 * cap) + 1) 0.;
    t.cap <- cap
  end

(* dp <- dp convolved with {+b ↦ q, −b ↦ 1−q}, via the scratch buffer.
   [pos] is rebuilt from the masses as they are written: above-center mass
   counts in full, the center cell for half (the tie-break convention of
   Algorithm 1). *)
let push t { bucket = b; q } =
  ensure_cap t (t.span + b);
  let dp = t.dp and out = t.scratch and cap = t.cap in
  let lo = cap - t.span - b and hi = cap + t.span + b in
  Array.fill out lo (hi - lo + 1) 0.;
  let pos = ref 0. in
  for i = cap - t.span to cap + t.span do
    let p = dp.(i) in
    if p <> 0. then begin
      let up = p *. q and down = p *. (1. -. q) in
      out.(i + b) <- out.(i + b) +. up;
      out.(i - b) <- out.(i - b) +. down;
      if i + b > cap then pos := !pos +. up
      else if i + b = cap then pos := !pos +. (0.5 *. up);
      if i - b > cap then pos := !pos +. down
      else if i - b = cap then pos := !pos +. (0.5 *. down)
    end
  done;
  t.dp <- out;
  t.scratch <- dp;
  t.span <- t.span + b;
  t.pos <- !pos

(* Inverse of [push].  Returns false (leaving the map stale) when
   accumulated float drift makes the reconstruction untrustworthy
   (negative mass, or total mass off 1). *)
let deconvolve t { bucket = b; q } =
  let dp = t.dp and prev = t.scratch and cap = t.cap in
  let span' = t.span - b in
  Array.fill prev (cap - span') ((2 * span') + 1) 0.;
  let total = ref 0. and pos = ref 0. in
  let drift = ref false in
  (* Ascending keys: prev[k+b] is determined by new[k] and prev[k−b]. *)
  for i = cap - t.span to cap + t.span do
    let carried = if i - b >= cap - span' && i - b <= cap + span' then prev.(i - b) else 0. in
    let p = (dp.(i) -. (q *. carried)) /. (1. -. q) in
    if p < -1e-9 then drift := true
    else if p > 1e-18 && i + b <= cap + span' then begin
      prev.(i + b) <- p;
      total := !total +. p;
      if i + b > cap then pos := !pos +. p
      else if i + b = cap then pos := !pos +. (0.5 *. p)
    end
  done;
  if !drift || Float.abs (!total -. 1.) > 1e-6 then false
  else begin
    t.dp <- prev;
    t.scratch <- dp;
    t.span <- span';
    t.pos <- !pos;
    true
  end

let rebuild t =
  reset_map t;
  List.iter (fun e -> push t e) (List.rev t.entries);
  (match t.prior with Some e -> push t e | None -> ());
  t.stale <- false;
  t.removals <- 0;
  t.rebuilds <- t.rebuilds + 1

let create ?(num_buckets = Jq.Bucket.default_num_buckets) ?(alpha = 0.5) () =
  if num_buckets <= 0 then invalid_arg "Incremental.create: num_buckets <= 0";
  if alpha < 0. || alpha > 1. || Float.is_nan alpha then
    invalid_arg "Incremental.create: alpha outside [0, 1]";
  let upper = Prob.Log_space.logit 0.99 in
  let delta = upper /. float_of_int num_buckets in
  let prior_certain = Jq.Prior.is_degenerate alpha in
  let pseudo = Float.max alpha (1. -. alpha) in
  let prior, prior_high =
    if prior_certain || alpha = 0.5 then (None, None)
    else if pseudo > 0.99 then (None, Some pseudo)
    else (Some (fold_quality ~delta alpha), None)
  in
  let cap = num_buckets in
  let t =
    {
      delta;
      upper;
      num_buckets;
      dp = Array.make ((2 * cap) + 1) 0.;
      scratch = Array.make ((2 * cap) + 1) 0.;
      cap;
      span = 0;
      pos = 0.5;
      n = 0;
      coins = 0;
      certain_workers = 0;
      highs = [];
      entries = [];
      stale = false;
      removals = 0;
      rebuilds = 0;
      alpha;
      prior;
      prior_high;
      prior_certain;
    }
  in
  t.dp.(t.cap) <- 1.0;
  (match prior with Some e -> push t e | None -> ());
  t

let validate name quality =
  if quality < 0. || quality > 1. || Float.is_nan quality then
    invalid_arg (Printf.sprintf "Incremental.%s: quality outside [0, 1]" name)

let add_worker t quality =
  validate "add_worker" quality;
  t.n <- t.n + 1;
  let q = Float.max quality (1. -. quality) in
  if q = 0.5 then t.coins <- t.coins + 1
    (* A coin shifts no key and splits mass 50/50 onto the same key: the
       map is unchanged up to a factor that cancels, so skip it. *)
  else if q = 1. then begin
    t.certain_workers <- t.certain_workers + 1
    (* The map is left alone: while a certain member is present the value
       is 1 regardless, and [entries] keeps enough state to rebuild once
       the certain member is removed again. *)
  end
  else if q > 0.99 then t.highs <- q :: t.highs
    (* Above the fixed-width cap: floors the value (Lemma 1) instead of
       being convolved — the same shortcut Bucket.estimate applies. *)
  else begin
    let e = fold_quality ~delta:t.delta quality in
    t.entries <- e :: t.entries;
    if not (certain t) && not t.stale then push t e
  end

(* Drop one occurrence of [e] from a multiset list; None when absent. *)
let rec drop_entry e = function
  | [] -> None
  | x :: rest ->
      if x.bucket = e.bucket && x.q = e.q then Some rest
      else Option.map (fun r -> x :: r) (drop_entry e rest)

(* Drop one occurrence of [q] from a float multiset; None when absent. *)
let rec drop_float q = function
  | [] -> None
  | x :: rest ->
      if x = q then Some rest
      else Option.map (fun r -> x :: r) (drop_float q rest)

let remove_worker t quality =
  validate "remove_worker" quality;
  let absent () = invalid_arg "Incremental.remove_worker: worker not in jury" in
  let q = Float.max quality (1. -. quality) in
  if q = 0.5 then begin
    if t.coins = 0 then absent ();
    t.coins <- t.coins - 1;
    t.n <- t.n - 1
  end
  else if q = 1. then begin
    if t.certain_workers = 0 then absent ();
    t.certain_workers <- t.certain_workers - 1;
    t.n <- t.n - 1;
    (* Leaving the certain regime: the map missed every mutation since the
       certain member arrived, so force a rebuild before the next read. *)
    if not (certain t) then t.stale <- true
  end
  else if q > 0.99 then begin
    (match drop_float q t.highs with
    | None -> absent ()
    | Some rest -> t.highs <- rest);
    t.n <- t.n - 1
  end
  else begin
    let e = fold_quality ~delta:t.delta quality in
    (match drop_entry e t.entries with
    | None -> absent ()
    | Some rest -> t.entries <- rest);
    t.n <- t.n - 1;
    if certain t || t.stale then ()
    else begin
      t.removals <- t.removals + 1;
      if t.removals >= rebuild_period then t.stale <- true
      else if not (deconvolve t e) then t.stale <- true
    end
  end

let reset t =
  t.n <- 0;
  t.coins <- 0;
  t.certain_workers <- 0;
  t.highs <- [];
  t.entries <- [];
  t.stale <- false;
  t.removals <- 0;
  reset_map t;
  match t.prior with Some e -> push t e | None -> ()

let value t =
  if certain t then 1.
  else if convolved t = 0 then floor_value t
  else begin
    if t.stale then rebuild t;
    let est = Float.min 1. (Float.max 0. t.pos) in
    Float.max est (floor_value t)
  end

let size t = t.n
let coins t = t.coins
let rebuilds t = t.rebuilds

let error_bound t =
  if certain t then 0.
  else if has_high t then
    (* Mirror Bucket.estimate's high-quality shortcut: the value is floored
       at the top member (or prior) quality, so the true JQ is within
       1 - floor of it — the additive DP bound does not apply to the
       uncapped logit. *)
    1. -. floor_value t
  else
    Jq.Bounds.additive_bound ~upper:t.upper ~num_buckets:t.num_buckets
      ~n:(convolved t)
