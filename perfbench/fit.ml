(* Scaling exponent of a size ladder: the least-squares slope of
   log(time) against log(size). *)

(* A slope fitted over less than a tenfold size range is dominated by
   timing noise, so such a ladder is refused rather than reported. *)
let min_span = 10.0

let exponent points =
  if List.length points < 2 then invalid_arg "Fit.exponent: need two points";
  List.iter
    (fun (x, y) ->
      if not (x > 0.0 && y > 0.0) then
        invalid_arg "Fit.exponent: sizes and times must be positive")
    points;
  let xs = List.map fst points in
  let lo = List.fold_left min infinity xs
  and hi = List.fold_left max neg_infinity xs in
  if hi < min_span *. lo then
    invalid_arg
      (Printf.sprintf "Fit.exponent: ladder spans %.1fx, less than %.0fx"
         (hi /. lo) min_span);
  let n = float_of_int (List.length points) in
  let lx = List.map (fun (x, _) -> log x) points
  and ly = List.map (fun (_, y) -> log y) points in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean lx and my = mean ly in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 lx ly
  and sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 lx in
  sxy /. sxx
