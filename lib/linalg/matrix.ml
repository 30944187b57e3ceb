type t = {
  rows : int;
  cols : int;
  data : float array; (* row-major, length rows*cols *)
}

let check_dims name rows cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg (Printf.sprintf "Matrix.%s: dimensions %dx%d" name rows cols)

let create ~rows ~cols x =
  check_dims "create" rows cols;
  { rows; cols; data = Array.make (rows * cols) x }

let zeros ~rows ~cols = create ~rows ~cols 0.

let init ~rows ~cols f =
  check_dims "init" rows cols;
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.(i * cols + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Matrix.of_arrays: empty row";
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged")
    a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let of_list l = of_arrays (Array.of_list (List.map Array.of_list l))
let row_vector v = of_arrays [| Array.copy v |]

let col_vector v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Matrix.col_vector: empty";
  init ~rows:n ~cols:1 (fun i _ -> v.(i))

let diagonal v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Matrix.diagonal: empty";
  init ~rows:n ~cols:n (fun i j -> if i = j then v.(i) else 0.)

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix.get: (%d,%d) out of %dx%d" i j m.rows m.cols);
  m.data.((i * m.cols) + j)

let unsafe_get m i j = m.data.((i * m.cols) + j)
let data m = m.data

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> unsafe_get m i j))

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.row: out of range";
  Array.init m.cols (fun j -> unsafe_get m i j)

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Matrix.col: out of range";
  Array.init m.rows (fun i -> unsafe_get m i j)

let to_scalar m =
  if m.rows <> 1 || m.cols <> 1 then
    invalid_arg "Matrix.to_scalar: not a 1x1 matrix";
  m.data.(0)

let same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Matrix.%s: shape %dx%d vs %dx%d" name a.rows a.cols
         b.rows b.cols)

let map f m = { m with data = Array.map f m.data }

let map2 f a b =
  same_shape "map2" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale s m = map (fun x -> s *. x) m
let neg m = map (fun x -> -.x) m

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let data = Array.make (a.rows * b.cols) 0. in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          data.((i * b.cols) + j) <-
            data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  { rows = a.rows; cols = b.cols; data }

let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> unsafe_get m j i)

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Matrix.hcat: row mismatch";
  init ~rows:a.rows ~cols:(a.cols + b.cols) (fun i j ->
      if j < a.cols then unsafe_get a i j else unsafe_get b i (j - a.cols))

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Matrix.vcat: column mismatch";
  init ~rows:(a.rows + b.rows) ~cols:a.cols (fun i j ->
      if i < a.rows then unsafe_get a i j else unsafe_get b (i - a.rows) j)

let block grid =
  if Array.length grid = 0 then invalid_arg "Matrix.block: empty";
  let glue_row blocks =
    if Array.length blocks = 0 then invalid_arg "Matrix.block: empty row";
    Array.fold_left
      (fun acc b -> match acc with None -> Some b | Some a -> Some (hcat a b))
      None blocks
    |> Option.get
  in
  Array.fold_left
    (fun acc blocks ->
      let r = glue_row blocks in
      match acc with None -> Some r | Some a -> Some (vcat a r))
    None grid
  |> Option.get

let submatrix m ~row ~col ~rows ~cols =
  if
    row < 0 || col < 0 || rows <= 0 || cols <= 0
    || row + rows > m.rows
    || col + cols > m.cols
  then invalid_arg "Matrix.submatrix: out of range";
  init ~rows ~cols (fun i j -> unsafe_get m (row + i) (col + j))

(* Gaussian elimination with partial pivoting on the augmented system.
   Returns the solution matrix and the determinant of [a]. *)
(* Gaussian elimination with partial pivoting, split into the
   factorization of [a] and its replay on a right-hand side.  Replaying
   the recorded row swaps and multipliers performs exactly the
   operations, in the same order, that eliminating [a | b] in one pass
   performs on [b], so the split changes no result bit; it lets a
   caller that solves against one matrix many times factor it once and
   solve without allocating ([Mimo.switch_gains]). *)
type factored = {
  order : int;
  lu : float array array; (* the eliminated rows, in pivoted order *)
  swaps : int array; (* the row exchanged with row k at step k *)
  mults : float array; (* [k * order + i]: row i's multiplier at step k *)
  det : float;
}

let factor a =
  if a.rows <> a.cols then invalid_arg "Matrix.solve: not square";
  let n = a.rows in
  let m = to_arrays a in
  let swaps = Array.init n Fun.id in
  let mults = Array.make (n * n) 0. in
  let det = ref 1. in
  for k = 0 to n - 1 do
    (* partial pivot *)
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if abs_float m.(i).(k) > abs_float m.(!pivot).(k) then pivot := i
    done;
    if !pivot <> k then begin
      let tmp = m.(k) in
      m.(k) <- m.(!pivot);
      m.(!pivot) <- tmp;
      swaps.(k) <- !pivot;
      det := -. !det
    end;
    let p = m.(k).(k) in
    if abs_float p < 1e-300 then failwith "Matrix.solve: singular";
    det := !det *. p;
    for i = k + 1 to n - 1 do
      let f = m.(i).(k) /. p in
      mults.((k * n) + i) <- f;
      if f <> 0. then
        for j = k to n - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done
    done
  done;
  { order = n; lu = m; swaps; mults; det = !det }

let solve_factored f x =
  let n = f.order in
  if Array.length x <> n then invalid_arg "Matrix.solve_factored: length";
  for k = 0 to n - 1 do
    let s = f.swaps.(k) in
    if s <> k then begin
      let tmp = x.(k) in
      x.(k) <- x.(s);
      x.(s) <- tmp
    end;
    for i = k + 1 to n - 1 do
      let g = f.mults.((k * n) + i) in
      if g <> 0. then x.(i) <- x.(i) -. (g *. x.(k))
    done
  done;
  (* back substitution, in place: x.(k) for k > i already holds the
     solution *)
  for i = n - 1 downto 0 do
    let row = f.lu.(i) in
    let s = ref x.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (row.(k) *. x.(k))
    done;
    x.(i) <- !s /. row.(i)
  done

let solve a b =
  if a.rows <> a.cols then invalid_arg "Matrix.solve: not square";
  if a.rows <> b.rows then invalid_arg "Matrix.solve: rhs rows mismatch";
  let f = factor a in
  let n = a.rows and nb = b.cols in
  let data = Array.make (n * nb) 0. in
  (* The columns of [b] never mix, so solving them one at a time is the
     same arithmetic as eliminating them side by side. *)
  let x = Array.make n 0. in
  for j = 0 to nb - 1 do
    for i = 0 to n - 1 do
      x.(i) <- b.data.((i * nb) + j)
    done;
    solve_factored f x;
    for i = 0 to n - 1 do
      data.((i * nb) + j) <- x.(i)
    done
  done;
  { rows = n; cols = nb; data }

let inverse a = solve a (identity a.rows)

let determinant a =
  if a.rows <> a.cols then invalid_arg "Matrix.determinant: not square";
  match factor a with f -> f.det | exception Failure _ -> 0.

let frobenius_norm m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let max_abs m = Array.fold_left (fun acc x -> max acc (abs_float x)) 0. m.data

let equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2
       (fun x y -> abs_float (x -. y) <= tol)
       a.data b.data

let is_square m = m.rows = m.cols

let is_symmetric ?(tol = 1e-9) m =
  is_square m
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if abs_float (unsafe_get m i j -. unsafe_get m j i) > tol then ok := false
    done
  done;
  !ok

let trace m =
  if not (is_square m) then invalid_arg "Matrix.trace: not square";
  let s = ref 0. in
  for i = 0 to m.rows - 1 do
    s := !s +. unsafe_get m i i
  done;
  !s

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4f" (unsafe_get m i j)
    done;
    Format.fprintf ppf "]@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let to_string m = Format.asprintf "%a" pp m
