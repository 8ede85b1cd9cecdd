// L011 passes a router written in the `SourceCtl::Resume` arm, reads,
// a field initialiser, a comparison, a doc or string naming
// `router.update(view)`, and test code.
pub struct Plane { router: Router, dead: Vec<usize> }

impl Plane {
    pub fn new(view: View) -> Self {
        Plane { router: Router::from_view(view), dead: Vec::new() }
    }

    /// Only a resume calls `self.router.update(view)`.
    pub fn apply(&mut self, msg: SourceCtl) {
        match msg {
            SourceCtl::Resume { epoch, view } => {
                self.router.update(view);
                let _ = epoch;
            }
            SourceCtl::DeadDest { dest } => self.dead.push(dest.index()),
        }
    }

    pub fn send(&mut self, key: Key, other: &Router) -> bool {
        let _ = "self.router = other";
        self.router.route(key) == other.route(key) && self.router == *other
    }
}

#[cfg(test)]
mod tests {
    fn rewire(plane: &mut super::Plane, view: View) {
        plane.router = Router::from_view(view);
    }
}
