//! Scalar and index types, mirroring LULESH's `Real_t`/`Index_t`, plus the
//! error conditions the reference aborts on.

/// Floating-point type for all field data (`Real_t` in the C++ original).
pub type Real = f64;

/// Arithmetic index type: loop counters, sizes and the index a kernel
/// addresses memory with. Stored connectivity uses [`MeshIndex`].
pub type Index = usize;

/// Storage width of every mesh index array (node lists, face neighbours,
/// symmetry planes, node→corner lists): LULESH's `Index_t`, a 32-bit
/// `int`. A stored entry widens to [`Index`] where a kernel indexes with
/// it.
pub type MeshIndex = u32;

/// Fatal conditions detected during a timestep, corresponding to the
/// `VolumeError` / `QStopError` aborts of the reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuleshError {
    /// An element volume (or Jacobian determinant) became non-positive.
    VolumeError,
    /// Artificial viscosity exceeded `qstop`.
    QStopError,
}

impl std::fmt::Display for LuleshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuleshError::VolumeError => write!(f, "element volume error (non-positive volume)"),
            LuleshError::QStopError => write!(f, "artificial viscosity exceeded qstop"),
        }
    }
}

impl std::error::Error for LuleshError {}

/// Boundary-condition bit flags per element face (values identical to the
/// C++ `elemBC` encoding).
pub mod bc {
    /// ξ− face mask.
    pub const XI_M: i32 = 0x0000_0007;
    /// ξ− symmetry plane.
    pub const XI_M_SYMM: i32 = 0x0000_0001;
    /// ξ− free surface.
    pub const XI_M_FREE: i32 = 0x0000_0002;
    /// ξ− inter-domain communication face (unused single-node; kept for fidelity).
    pub const XI_M_COMM: i32 = 0x0000_0004;

    /// ξ+ face mask.
    pub const XI_P: i32 = 0x0000_0038;
    /// ξ+ symmetry plane.
    pub const XI_P_SYMM: i32 = 0x0000_0008;
    /// ξ+ free surface.
    pub const XI_P_FREE: i32 = 0x0000_0010;
    /// ξ+ communication face.
    pub const XI_P_COMM: i32 = 0x0000_0020;

    /// η− face mask.
    pub const ETA_M: i32 = 0x0000_01c0;
    /// η− symmetry plane.
    pub const ETA_M_SYMM: i32 = 0x0000_0040;
    /// η− free surface.
    pub const ETA_M_FREE: i32 = 0x0000_0080;
    /// η− communication face.
    pub const ETA_M_COMM: i32 = 0x0000_0100;

    /// η+ face mask.
    pub const ETA_P: i32 = 0x0000_0e00;
    /// η+ symmetry plane.
    pub const ETA_P_SYMM: i32 = 0x0000_0200;
    /// η+ free surface.
    pub const ETA_P_FREE: i32 = 0x0000_0400;
    /// η+ communication face.
    pub const ETA_P_COMM: i32 = 0x0000_0800;

    /// ζ− face mask.
    pub const ZETA_M: i32 = 0x0000_7000;
    /// ζ− symmetry plane.
    pub const ZETA_M_SYMM: i32 = 0x0000_1000;
    /// ζ− free surface.
    pub const ZETA_M_FREE: i32 = 0x0000_2000;
    /// ζ− communication face.
    pub const ZETA_M_COMM: i32 = 0x0000_4000;

    /// ζ+ face mask.
    pub const ZETA_P: i32 = 0x0003_8000;
    /// ζ+ symmetry plane.
    pub const ZETA_P_SYMM: i32 = 0x0000_8000;
    /// ζ+ free surface.
    pub const ZETA_P_FREE: i32 = 0x0001_0000;
    /// ζ+ communication face.
    pub const ZETA_P_COMM: i32 = 0x0002_0000;
}

#[cfg(test)]
mod tests {
    use super::bc::*;

    #[test]
    fn masks_cover_their_bits() {
        assert_eq!(XI_M, XI_M_SYMM | XI_M_FREE | XI_M_COMM);
        assert_eq!(XI_P, XI_P_SYMM | XI_P_FREE | XI_P_COMM);
        assert_eq!(ETA_M, ETA_M_SYMM | ETA_M_FREE | ETA_M_COMM);
        assert_eq!(ETA_P, ETA_P_SYMM | ETA_P_FREE | ETA_P_COMM);
        assert_eq!(ZETA_M, ZETA_M_SYMM | ZETA_M_FREE | ZETA_M_COMM);
        assert_eq!(ZETA_P, ZETA_P_SYMM | ZETA_P_FREE | ZETA_P_COMM);
    }

    #[test]
    fn masks_are_disjoint() {
        let masks = [XI_M, XI_P, ETA_M, ETA_P, ZETA_M, ZETA_P];
        for (i, a) in masks.iter().enumerate() {
            for b in &masks[i + 1..] {
                assert_eq!(a & b, 0);
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(super::LuleshError::VolumeError
            .to_string()
            .contains("volume"));
        assert!(super::LuleshError::QStopError.to_string().contains("qstop"));
    }
}
