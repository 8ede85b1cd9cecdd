// L011 in the source's file: its router written outside the
// `SourceCtl::Resume` arm is flagged (lines 8, 16, 17 and 18).
pub struct Plane { router: Router, dead: Vec<usize> }

pub fn apply(plane: &mut Plane, msg: SourceCtl) {
    match msg {
        SourceCtl::DeadDest { dest, moves } => {
            plane.router.update(View::Delta(moves));
            plane.dead.push(dest);
        }
        SourceCtl::Resume { view, .. } => plane.router.update(view),
    }
}

pub fn reset(plane: &mut Plane, view: View, mut other: Router) {
    plane.router = Router::from_view(view);
    std::mem::swap(&mut plane.router, &mut other);
    let router = &mut plane.router;
}
