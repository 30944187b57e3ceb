open Spectr_linalg

type channel = {
  name : string;
  offset : float;
  scale : float;
  min : float;
  max : float;
}

let channel ?(offset = 0.) ?(scale = 1.) ?(min = neg_infinity)
    ?(max = infinity) name =
  if scale = 0. then invalid_arg "Mimo.channel: zero scale";
  if min > max then invalid_arg "Mimo.channel: min > max";
  { name; offset; scale; min; max }

(* One gain matrix in compressed sparse rows: row [i]'s nonzero
   coefficients are [v.(rp.(i)) .. v.(rp.(i+1) - 1)], in column order,
   at columns [ci.(…)].  An entry is kept exactly when [g <> 0.] holds
   — the test [Matrix.mul] skips on — so [-0.] is dropped and NaN is
   kept. *)
type csr = { rp : int array; ci : int array; v : float array }

let csr_of mat =
  let cols = Matrix.cols mat and d = Matrix.data mat in
  let nz =
    List.filter (fun q -> d.(q) <> 0.) (List.init (Array.length d) Fun.id)
  in
  {
    rp =
      Array.init (Matrix.rows mat + 1) (fun i ->
          List.length (List.filter (fun q -> q < i * cols) nz));
    ci = Array.of_list (List.map (fun q -> q mod cols) nz);
    v = Array.of_list (List.map (fun q -> d.(q)) nz);
  }

(* One gain set compiled for the tick kernel: every matrix of the
   control law as zero-free CSR rows, the integrator leak, and — for
   the bumpless-transfer solve of [switch_gains] only — the dense
   row-major Kz (see {!Matrix.data}; shared with the immutable
   [Lqg.gains], never written) and the factored Gram matrix of that
   solve ([None] when singular). *)
type kernel = {
  gains : Lqg.gains;
  gram : Matrix.factored option;
  kz_dense : float array; (* Kz, m x p *)
  ka : csr; (* A, n x n *)
  kb : csr; (* B, n x m *)
  kc : csr; (* C, p x n *)
  kl : csr; (* L, n x p *)
  kkx : csr; (* Kx, m x n *)
  kkz : csr; (* Kz, m x p *)
  leak : float;
}

let kernel_of g =
  let model = g.Lqg.model in
  let kz = g.Lqg.kz in
  let kzt = Matrix.transpose kz in
  let gram =
    Matrix.add (Matrix.mul kzt kz)
      (Matrix.scale 1e-9 (Matrix.identity (Matrix.cols kz)))
  in
  {
    gains = g;
    gram = (try Some (Matrix.factor gram) with Failure _ -> None);
    kz_dense = Matrix.data kz;
    ka = csr_of model.Statespace.a;
    kb = csr_of model.Statespace.b;
    kc = csr_of model.Statespace.c;
    kl = csr_of g.Lqg.l;
    kkx = csr_of g.Lqg.kx;
    kkz = csr_of kz;
    leak = g.Lqg.leak;
  }

(* The gain sets of one controller, validated and compiled together:
   what {!compile} returns and every controller built from it shares. *)
type kernels = {
  gain_list : Lqg.gains list;
  sets : (string * kernel) list;
  n : int;
  m : int;
  p : int;
}

let dims g =
  ( Statespace.order g.Lqg.model,
    Statespace.num_inputs g.Lqg.model,
    Statespace.num_outputs g.Lqg.model )

(* Every matrix of a gain set agrees with (n, m, p) — the only shape
   check the kernel relies on, made once per gain set here. *)
let check_shapes ~who (n, m, p) g =
  let model = g.Lqg.model in
  let shape what mat rows cols =
    if Matrix.rows mat <> rows || Matrix.cols mat <> cols then
      invalid_arg
        (Printf.sprintf "%s: %s of %S is %dx%d, expected %dx%d" who what
           g.Lqg.label (Matrix.rows mat) (Matrix.cols mat) rows cols)
  in
  shape "A" model.Statespace.a n n;
  shape "B" model.Statespace.b n m;
  shape "C" model.Statespace.c p n;
  shape "L" g.Lqg.l n p;
  shape "Kx" g.Lqg.kx m n;
  shape "Kz" g.Lqg.kz m p

let compile_as ~who gains =
  (match gains with [] -> invalid_arg (who ^ ": no gain sets") | _ -> ());
  let labels = List.map (fun g -> g.Lqg.label) gains in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  (match dup labels with
  | Some l -> invalid_arg (Printf.sprintf "%s: duplicate label %S" who l)
  | None -> ());
  let d0 = dims (List.hd gains) in
  List.iter
    (fun g ->
      if dims g <> d0 then
        invalid_arg (who ^ ": gain sets disagree on dimensions");
      check_shapes ~who d0 g)
    gains;
  let n, m, p = d0 in
  {
    gain_list = gains;
    sets = List.map (fun g -> (g.Lqg.label, kernel_of g)) gains;
    n;
    m;
    p;
  }

let compile gains = compile_as ~who:"Mimo.compile" gains
let gains ks = ks.gain_list

(* The controller's scalars, in a record of floats only: OCaml stores
   it flat, so the kernel reads and writes them unboxed (a float field
   of the mixed record [t] is a pointer to a box). *)
type scalars = {
  z_clamp : float;
  mutable innov : float;
      (* ‖Kalman innovation‖₂ of the last step, in normalized output
         units — the FDIR residual monitor's signal *)
}

type t = {
  kernels : kernels;
  mutable active : kernel;
  n : int;
  m : int;
  p : int;
  (* Channel parameters unpacked into float arrays, so the kernel reads
     them without chasing a boxed field per use. *)
  in_off : float array;
  in_scale : float array;
  in_min : float array;
  in_max : float array;
  out_off : float array;
  out_scale : float array;
  refs : float array; (* physical reference values, mutable entries *)
  sc : scalars;
  xhat : float array; (* n, predicted state *)
  z : float array; (* p, integrator *)
  u_prev : float array; (* m, normalized previous command *)
  (* Kernel scratch, overwritten every step. *)
  y : float array; (* p, normalized measurements *)
  r : float array; (* p, normalized references *)
  e : float array; (* p, Kalman innovation y - C x̂ *)
  zc : float array; (* p, integrator candidate *)
  xf : float array; (* n, filtered state *)
  cm : float array; (* m, integrator contribution at a gain switch *)
  last : float array; (* m, last physical command *)
  mutable last_valid : bool;
}

(* The gain set labelled [label], found without allocating an option. *)
let rec gain_set who label = function
  | [] -> invalid_arg (Printf.sprintf "%s: unknown label %S" who label)
  | (l, k) :: rest -> if l = label then k else gain_set who label rest

let make ~who ?(z_clamp = 20.) (ks : kernels) ~initial ~inputs ~outputs ~refs =
  if z_clamp <= 0. then invalid_arg (who ^ ": z_clamp <= 0");
  let n = ks.n and m = ks.m and p = ks.p in
  if Array.length inputs <> m then invalid_arg (who ^ ": inputs length");
  if Array.length outputs <> p then invalid_arg (who ^ ": outputs length");
  if Array.length refs <> p then invalid_arg (who ^ ": refs length");
  let active = gain_set who initial ks.sets in
  let field f chs = Array.map f chs in
  {
    kernels = ks;
    active;
    n;
    m;
    p;
    in_off = field (fun c -> c.offset) inputs;
    in_scale = field (fun c -> c.scale) inputs;
    in_min = field (fun c -> c.min) inputs;
    in_max = field (fun c -> c.max) inputs;
    out_off = field (fun c -> c.offset) outputs;
    out_scale = field (fun c -> c.scale) outputs;
    refs = Array.copy refs;
    sc = { z_clamp; innov = 0. };
    xhat = Array.make n 0.;
    z = Array.make p 0.;
    u_prev = Array.make m 0.;
    y = Array.make p 0.;
    r = Array.make p 0.;
    e = Array.make p 0.;
    zc = Array.make p 0.;
    xf = Array.make n 0.;
    cm = Array.make m 0.;
    last = Array.make m 0.;
    last_valid = false;
  }

let of_kernels ?z_clamp ks ~initial ~inputs ~outputs ~refs () =
  make ~who:"Mimo.of_kernels" ?z_clamp ks ~initial ~inputs ~outputs ~refs

let create ?z_clamp ~gains ~initial ~inputs ~outputs ~refs () =
  let who = "Mimo.create" in
  make ~who ?z_clamp (compile_as ~who gains) ~initial ~inputs ~outputs ~refs

let kernels ctrl = ctrl.kernels

(* Unchecked array access for the kernel below: every index is bounded
   by the dimensions checked once, when the gain sets were compiled and
   the channels installed ([compile], [make], [restore]), by the CSR
   row pointers and column indices built in [csr_of], or by the
   argument lengths checked on entry. *)
external ( .%() ) : float array -> int -> float = "%array_unsafe_get"
external ( .%()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"

(* Row [i] of a CSR matrix times [x]: [Matrix.mul]'s zero-skipping
   accumulation — the same terms, in the same column order, from [+0.]
   — with no branch left in the loop.  Inlined, so the sum never leaves
   a register. *)
let[@inline] row_dot s i x =
  let acc = ref 0. in
  for q = s.rp.!(i) to s.rp.!(i + 1) - 1 do
    acc := !acc +. (s.v.%(q) *. x.%(s.ci.!(q)))
  done;
  !acc

(* The control period as one flat kernel over the gain and state
   arrays.  Its contract is operation-for-operation identity with the
   matrix formulation it replaced (and which test/test_kernel.ml keeps
   as the reference), so every trace stays bit-identical:

   - every matrix-vector product is [row_dot] over the compiled CSR
     rows, i.e. [Matrix.mul]'s accumulation (same terms, same order,
     from [+0.]);
   - every sum keeps its operand order (x̂ + L·e, Kx·x + Kz·z, A·x + B·u);
   - saturation and integrator clamping use [Float.min]/[Float.max] in
     the same nesting, which fixes the NaN and signed-zero results.

   The C·x/D·u output equation of the plant model, whose result the
   control law never used, is not evaluated. *)
let step_into ctrl ~measured ~dst =
  let n = ctrl.n and m = ctrl.m and p = ctrl.p in
  if Array.length measured <> p then
    invalid_arg "Mimo.step_into: measured length";
  if Array.length dst <> m then invalid_arg "Mimo.step_into: dst length";
  let k = ctrl.active in
  let xhat = ctrl.xhat and z = ctrl.z and u_prev = ctrl.u_prev in
  let y = ctrl.y and r = ctrl.r and e = ctrl.e in
  let zc = ctrl.zc and xf = ctrl.xf in
  (* 1. normalize measurements and references *)
  for i = 0 to p - 1 do
    y.%(i) <- (measured.%(i) -. ctrl.out_off.%(i)) /. ctrl.out_scale.%(i);
    r.%(i) <- (ctrl.refs.%(i) -. ctrl.out_off.%(i)) /. ctrl.out_scale.%(i)
  done;
  (* 2. Kalman measurement update on the predicted state:
        e = y − C·x̂, x_f = x̂ + L·e *)
  for i = 0 to p - 1 do
    e.%(i) <- y.%(i) -. row_dot k.kc i xhat
  done;
  for i = 0 to n - 1 do
    xf.%(i) <- xhat.%(i) +. row_dot k.kl i e
  done;
  (* The innovation's norm is the model-consistency residual the FDIR
     layer watches: extra reads only, nothing the control law sees. *)
  let s2 = ref 0. in
  for i = 0 to p - 1 do
    s2 := !s2 +. (e.%(i) *. e.%(i))
  done;
  ctrl.sc.innov <- Float.sqrt !s2;
  (* 3. integrator update with the current tracking error (conditional
        anti-windup applied after saturation below) *)
  let leak = k.leak in
  for i = 0 to p - 1 do
    zc.%(i) <- (leak *. z.%(i)) +. (r.%(i) -. y.%(i))
  done;
  (* 4. feedback law on normalized deviations, u = −(Kx·x_f + Kz·z_c);
     5. saturate in physical units, keeping the normalized saturated
        command for the time update *)
  for i = 0 to m - 1 do
    let u = -.(row_dot k.kkx i xf +. row_dot k.kkz i zc) in
    let v =
      Float.min ctrl.in_max.%(i)
        (Float.max ctrl.in_min.%(i) ((u *. ctrl.in_scale.%(i)) +. ctrl.in_off.%(i)))
    in
    dst.%(i) <- v;
    u_prev.%(i) <- (v -. ctrl.in_off.%(i)) /. ctrl.in_scale.%(i)
  done;
  (* 6. anti-windup by integrator clamping: each integrator state is
        bounded to ±z_clamp (normalized units).  During an infeasible
        phase the integrators wind to the clamp — sustaining a maximal
        command, which is the desired behaviour for a prioritized
        objective — and unwinding after recovery takes a bounded number
        of periods instead of growing with the infeasible duration. *)
  let zmax = ctrl.sc.z_clamp in
  for i = 0 to p - 1 do
    z.%(i) <- Float.max (-.zmax) (Float.min zmax zc.%(i))
  done;
  (* 7. time update with the saturated command: x' = A·x_f + B·u *)
  for i = 0 to n - 1 do
    xhat.%(i) <- row_dot k.ka i xf +. row_dot k.kb i u_prev
  done;
  Array.blit dst 0 ctrl.last 0 m;
  ctrl.last_valid <- true

(* Bumpless transfer: the integrator contribution to the command must be
   continuous across the switch, so solve Kz_new · z_new = Kz_old · z_old
   in the least-squares sense — (Kz_newᵀ Kz_new + 10⁻⁹ I) z_new =
   Kz_newᵀ (Kz_old z_old).  Without this, a wound integrator
   reinterpreted under different gains slams the actuators and can
   limit-cycle the supervisor.  The products below follow [Matrix.mul]
   ([row_dot] for Kz_old, and a zero-skipping pass over the dense Kz_new
   for its transpose) and the Gram matrix was factored when the gain set
   was compiled, so the switch is
   bit-identical to the matrix formulation and allocates nothing; a
   singular Gram matrix leaves the integrators as they are. *)
let switch_gains ctrl label =
  match gain_set "Mimo.switch_gains" label ctrl.kernels.sets with
  | k when k == ctrl.active -> ()
  | k ->
      (match k.gram with
      | None -> ()
      | Some gram ->
          let m = ctrl.m and p = ctrl.p in
          let z = ctrl.z and cm = ctrl.cm in
          let kz_old = ctrl.active.kkz and kz = k.kz_dense in
          for i = 0 to m - 1 do
            cm.(i) <- row_dot kz_old i z
          done;
          (* z ← Kz_newᵀ · cm, then solved in place *)
          for i = 0 to p - 1 do
            let acc = ref 0. in
            for j = 0 to m - 1 do
              let g = kz.((j * p) + i) in
              if g <> 0. then acc := !acc +. (g *. cm.(j))
            done;
            z.(i) <- !acc
          done;
          Matrix.solve_factored gram z);
      ctrl.active <- k

let current_gains ctrl = ctrl.active.gains.Lqg.label
let available_gains ctrl = List.map fst ctrl.kernels.sets

let set_reference ctrl ~index value =
  if index < 0 || index >= Array.length ctrl.refs then
    invalid_arg "Mimo.set_reference: index";
  ctrl.refs.(index) <- value

let set_reference_at ctrl ~index src i =
  if index < 0 || index >= Array.length ctrl.refs then
    invalid_arg "Mimo.set_reference: index";
  ctrl.refs.(index) <- src.(i)

let reference ctrl ~index =
  if index < 0 || index >= Array.length ctrl.refs then
    invalid_arg "Mimo.reference: index";
  ctrl.refs.(index)

let reset ctrl =
  Array.fill ctrl.xhat 0 ctrl.n 0.;
  Array.fill ctrl.z 0 ctrl.p 0.;
  Array.fill ctrl.u_prev 0 ctrl.m 0.;
  ctrl.sc.innov <- 0.;
  ctrl.last_valid <- false

let num_inputs ctrl = ctrl.m
let num_outputs ctrl = ctrl.p
let innovation_norm_into ctrl dst i = dst.(i) <- ctrl.sc.innov

let last_command ctrl =
  if ctrl.last_valid then Some (Array.copy ctrl.last) else None

type snapshot = {
  snap_active : string;
  snap_refs : float array;
  snap_xhat : float array array;
  snap_z : float array array;
  snap_u_prev : float array array;
  snap_last : float array option;
}

(* State vectors travel as n x 1 row arrays (the checkpoint format of the
   matrix-backed controller). *)
let column v = Array.map (fun x -> [| x |]) v

let snapshot ctrl =
  {
    snap_active = current_gains ctrl;
    snap_refs = Array.copy ctrl.refs;
    snap_xhat = column ctrl.xhat;
    snap_z = column ctrl.z;
    snap_u_prev = column ctrl.u_prev;
    snap_last = (if ctrl.last_valid then Some (Array.copy ctrl.last) else None);
  }

(* Restore helpers, top-level so that [restore] builds no closure: an
   accepted snapshot is copied in without allocating. *)
let rec unit_rows a i = i < 0 || (Array.length a.(i) = 1 && unit_rows a (i - 1))

let check_column what len a =
  if Array.length a <> len || not (unit_rows a (len - 1)) then
    invalid_arg ("Mimo.restore: " ^ what ^ " shape")

let load_column (dst : float array) (a : float array array) =
  for i = 0 to Array.length a - 1 do
    dst.(i) <- a.(i).(0)
  done

let restore ctrl s =
  let k = gain_set "Mimo.restore" s.snap_active ctrl.kernels.sets in
  if Array.length s.snap_refs <> Array.length ctrl.refs then
    invalid_arg "Mimo.restore: refs length";
  check_column "xhat" ctrl.n s.snap_xhat;
  check_column "z" ctrl.p s.snap_z;
  check_column "u_prev" ctrl.m s.snap_u_prev;
  (match s.snap_last with
  | Some a when Array.length a <> ctrl.m ->
      invalid_arg "Mimo.restore: last shape"
  | _ -> ());
  ctrl.active <- k;
  Array.blit s.snap_refs 0 ctrl.refs 0 (Array.length ctrl.refs);
  load_column ctrl.xhat s.snap_xhat;
  load_column ctrl.z s.snap_z;
  load_column ctrl.u_prev s.snap_u_prev;
  match s.snap_last with
  | None -> ctrl.last_valid <- false
  | Some a ->
      Array.blit a 0 ctrl.last 0 ctrl.m;
      ctrl.last_valid <- true
