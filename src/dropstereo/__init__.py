"""Depth from adherent water drops.

Drops on glass act as small fisheye lenses.  This package reconstructs each
drop's 3D surface by constrained potential-energy minimization, estimates
the drop volume from the total-reflection dark band, triangulates scene
depth from the refracted rays of several drops, and rectifies the warped
drop imagery.  A forward synthetic renderer provides ground truth.
"""

from .core import DropMask, HeightField, OpticalConfig, RasterGray, Vec3, normal_field
from .detect import DetectParams, detect_drops
from .errors import (DegenerateGeometry, DomainError, EmptyOutput, InsufficientMatches,
                     RingTooSmall)
from .formats import PipelineConfig
from .masks import blob_mask, disk_mask
from .optics import (FresnelResult, band_transmittance_linear, critical_normal_z,
                     dark_band_mask, fresnel_transmittance)
from .raytrace import (DewarpedImage, Ray, ScenePlane, SceneSpec, dewarp_image,
                       render_synthetic)
from .rectify import RectifiedView, compensate_illuminance, rectify_drop
from .solver import (SolveReport, SolverParams, energy_of, init_mesh, initial_volume,
                     solve_fixed_volume, volume_of)
from .stereo import (BlockMatchParams, Correspondence, DepthResult, block_match,
                     depth_from_drops, triangulate)
from .volume_loop import (VolumeLoopParams, estimate_shape, sample_band_brightness,
                          target_brightness, volume_update)

__version__ = "0.1.0"
