(* Node and edge representations shared by the whole DD package.

   Decision diagrams here are *quasi-reduced*: every root-to-terminal path
   visits every variable level in order, with one exception — an edge whose
   weight is (canonical) zero always points directly to the terminal and
   stands for the all-zero vector/matrix of whatever dimension its context
   requires.  This keeps every recursive algorithm a simple simultaneous
   descent without level-skipping case analysis. *)

type weight = Cxnum.Cx_table.value

(* Vector DDs: a node at variable [vvar] splits on qubit [vvar]; [v0] is the
   |0>-successor, [v1] the |1>-successor.  [vt = None] is the terminal.
   [vmark] belongs to graph walks: a walk takes a {!fresh_stamp} and
   marks each node it reaches with it, so "seen" is one comparison. *)
type vnode =
  { vid : int
  ; vvar : int
  ; v0 : vedge
  ; v1 : vedge
  ; mutable vmark : int
  }

and vedge =
  { vw : weight
  ; vt : vnode option
  }

(* Matrix DDs: four successors indexed row-major, [m.(2*i + j)] being the
   block mapping |j> to |i> on qubit [mvar]. *)
type mnode =
  { mid : int
  ; mvar : int
  ; m00 : medge
  ; m01 : medge
  ; m10 : medge
  ; m11 : medge
  ; mutable mmark : int
  }

and medge =
  { mw : weight
  ; mt : mnode option
  }

let vedge_is_zero e = Cxnum.Cx_table.is_zero e.vw
let medge_is_zero e = Cxnum.Cx_table.is_zero e.mw
let vnode_id = function None -> -1 | Some n -> n.vid
let mnode_id = function None -> -1 | Some n -> n.mid

(* Walk stamps, process-wide so that no two walks share one, whichever
   package or domain they run in.  A node carries the stamp of the last
   walk that reached it; fresh nodes carry 0, which no walk uses.  Only
   the domain that owns a node's package walks it, so the marks never
   race. *)
let stamps = Atomic.make 0
let fresh_stamp () = 1 + Atomic.fetch_and_add stamps 1
