(* Iteration traces with exact bound envelopes.  See convergence.mli. *)

module Q = Exact.Q

type point = { iteration : int; value : Q.t; lower : Q.t; upper : Q.t }
type t = { mutable rev : point list; mutable count : int }

let create () = { rev = []; count = 0 }

let record t p =
  if p.iteration <> t.count + 1 then
    invalid_arg
      (Printf.sprintf "Convergence.record: iteration %d after %d (gapless)"
         p.iteration t.count);
  t.rev <- p :: t.rev;
  t.count <- t.count + 1

let length t = t.count
let points t = List.rev t.rev
let final t = match t.rev with [] -> None | p :: _ -> Some p

let envelope t =
  match points t with
  | [] -> []
  | first :: rest ->
      let best_low = ref first.lower and best_high = ref first.upper in
      (* bind the head before the map: [::] gives no evaluation-order
         guarantee, and the map mutates the refs *)
      let head = Q.sub !best_high !best_low in
      head
      :: List.map
           (fun p ->
             best_low := Q.max !best_low p.lower;
             best_high := Q.min !best_high p.upper;
             Q.sub !best_high !best_low)
           rest

let converged_at t =
  let rec scan i = function
    | [] -> None
    | g :: rest -> if Q.is_zero g then Some i else scan (i + 1) rest
  in
  scan 1 (envelope t)
