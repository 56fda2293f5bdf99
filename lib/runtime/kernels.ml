(* Dense kernels shared by the reference interpreter and the run-time
   library.  Plain arrays in, no simulator, no allocation per element.
   Both callers charge their own modeled cost; these only do the work. *)

(* --- gemm: C += A * B over row-major arrays ---------------------------

   A is m x k starting at [aoff], B is k x n, C is m x n.  Every C
   element adds A(i,kk) * B(kk,j) onto its current value for kk
   ascending, so the result is bit-identical to the textbook i-j-k
   loop with an accumulator started at C's value (0. for a fresh C) --
   NaN, infinities and signed zeros included.

   The work is cut into register tiles: a tile holds a few elements of
   C in float refs (unboxed, so in registers) while it runs over every
   kk, loading them from C at its start and storing them at its end.
   Each element still adds its terms in ascending kk and OCaml emits
   no fused multiply-add, so the tiles change no rounding.  The loops
   do no loop-invariant code motion, so each tile computes its row
   offsets once and steps its offset into B by n. *)

(* C(i..i+3, j..j+1) += A(i..i+3, :) * B(:, j..j+1), for the rows of A
   and C starting at [ai] and [ci]. *)
let tile_4x2 a ai k b n c ci j =
  let a1 = ai + k in
  let a2 = a1 + k in
  let a3 = a2 + k in
  let c0 = ci + j in
  let c1 = c0 + n in
  let c2 = c1 + n in
  let c3 = c2 + n in
  let x0 = ref c.(c0) and x1 = ref c.(c0 + 1) and y0 = ref c.(c1) and y1 = ref c.(c1 + 1) in
  let z0 = ref c.(c2) and z1 = ref c.(c2 + 1) and w0 = ref c.(c3) and w1 = ref c.(c3 + 1) in
  let bo = ref j in
  for kk = 0 to k - 1 do
    let b0 = b.(!bo) and b1 = b.(!bo + 1) in
    bo := !bo + n;
    let p = a.(ai + kk) in
    x0 := !x0 +. (p *. b0);
    x1 := !x1 +. (p *. b1);
    let p = a.(a1 + kk) in
    y0 := !y0 +. (p *. b0);
    y1 := !y1 +. (p *. b1);
    let p = a.(a2 + kk) in
    z0 := !z0 +. (p *. b0);
    z1 := !z1 +. (p *. b1);
    let p = a.(a3 + kk) in
    w0 := !w0 +. (p *. b0);
    w1 := !w1 +. (p *. b1)
  done;
  c.(c0) <- !x0;
  c.(c0 + 1) <- !x1;
  c.(c1) <- !y0;
  c.(c1 + 1) <- !y1;
  c.(c2) <- !z0;
  c.(c2 + 1) <- !z1;
  c.(c3) <- !w0;
  c.(c3 + 1) <- !w1

(* C(i..i+3, j) += A(i..i+3, :) * B(:, j): the odd column of a row
   block, and with n = 1 the whole matrix-vector product. *)
let tile_4x1 a ai k b n c ci j =
  let a1 = ai + k in
  let a2 = a1 + k in
  let a3 = a2 + k in
  let c0 = ci + j in
  let c1 = c0 + n in
  let c2 = c1 + n in
  let c3 = c2 + n in
  let x = ref c.(c0) and y = ref c.(c1) and z = ref c.(c2) and w = ref c.(c3) in
  let bo = ref j in
  for kk = 0 to k - 1 do
    let bk = b.(!bo) in
    bo := !bo + n;
    x := !x +. (a.(ai + kk) *. bk);
    y := !y +. (a.(a1 + kk) *. bk);
    z := !z +. (a.(a2 + kk) *. bk);
    w := !w +. (a.(a3 + kk) *. bk)
  done;
  c.(c0) <- !x;
  c.(c1) <- !y;
  c.(c2) <- !z;
  c.(c3) <- !w

(* C(i, j..j+3) += A(i, :) * B(:, j..j+3): the leftover rows (m mod 4),
   among them the m = 1 row-vector product. *)
let tile_1x4 a ai k b n c ci j =
  let c0 = ci + j in
  let x0 = ref c.(c0) and x1 = ref c.(c0 + 1) and x2 = ref c.(c0 + 2) and x3 = ref c.(c0 + 3) in
  let bo = ref j in
  for kk = 0 to k - 1 do
    let p = a.(ai + kk) and o = !bo in
    x0 := !x0 +. (p *. b.(o));
    x1 := !x1 +. (p *. b.(o + 1));
    x2 := !x2 +. (p *. b.(o + 2));
    x3 := !x3 +. (p *. b.(o + 3));
    bo := o + n
  done;
  c.(c0) <- !x0;
  c.(c0 + 1) <- !x1;
  c.(c0 + 2) <- !x2;
  c.(c0 + 3) <- !x3

(* C(i, j) += A(i, :) * B(:, j): a leftover row's last n mod 4
   columns. *)
let tile_1x1 a ai k b n c ci j =
  let x = ref c.(ci + j) and bo = ref j in
  for kk = 0 to k - 1 do
    x := !x +. (a.(ai + kk) *. b.(!bo));
    bo := !bo + n
  done;
  c.(ci + j) <- !x

(* Row blocks of four take 4 x 2 tiles (and a 4 x 1 tile for an odd
   last column); the m mod 4 leftover rows take 1 x 4 tiles (and 1 x 1
   tiles for the last n mod 4 columns).  With k = 0 there is nothing to
   add and C is not touched: callers may pass a C that is not m x n
   then, as the row-sliced branch of [Ops.matmul] does for a grid-laid
   result. *)
let gemm ~m ~k ~n (a : float array) ~aoff (b : float array) (c : float array) =
  let m4 = m - (m mod 4) and n2 = n - (n mod 2) and n4 = n - (n mod 4) in
  if k > 0 then begin
    for ib = 0 to (m4 / 4) - 1 do
      let ai = aoff + (4 * ib * k) and ci = 4 * ib * n in
      for jb = 0 to (n2 / 2) - 1 do
        tile_4x2 a ai k b n c ci (2 * jb)
      done;
      if n2 < n then tile_4x1 a ai k b n c ci n2
    done;
    for i = m4 to m - 1 do
      let ai = aoff + (i * k) and ci = i * n in
      for jb = 0 to (n4 / 4) - 1 do
        tile_1x4 a ai k b n c ci (4 * jb)
      done;
      for j = n4 to n - 1 do
        tile_1x1 a ai k b n c ci j
      done
    done
  end

(* Visit the section [sels] of a row-major array with extents [dims]:
   [f pos off] for every selected element in row-major order of the
   selection, [pos] being its row-major position in the selection and
   [off] its offset in the source.  A repeated subscript is visited
   once per occurrence, in that order, so in a store the last write
   wins.  Only leading-axis positions [lo, hi) of the selection are
   visited (default: all of them).  [dims] and [sels] have the same
   length, at least 1, and the caller has checked every subscript of
   [sels.(axis)] against [dims.(axis)]. *)
let walk ?(lo = 0) ?hi (dims : int array) (sels : int array array) f =
  let r = Array.length dims in
  let stride = Array.make r 1 in
  for axis = r - 2 downto 0 do
    stride.(axis) <- stride.(axis + 1) * dims.(axis + 1)
  done;
  let hi = match hi with Some h -> h | None -> Array.length sels.(0) in
  let rec go axis pos off =
    let s = sels.(axis) in
    let j0 = if axis = 0 then lo else 0
    and j1 = if axis = 0 then hi else Array.length s in
    let pos = pos * Array.length s in
    if axis = r - 1 then
      for j = j0 to j1 - 1 do
        f (pos + j) (off + s.(j))
      done
    else
      let st = stride.(axis) in
      for j = j0 to j1 - 1 do
        go (axis + 1) (pos + j) (off + (s.(j) * st))
      done
  in
  go 0 0 0
