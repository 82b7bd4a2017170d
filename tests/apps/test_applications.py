"""Tests for the Tbl. 4 benchmark applications and builders."""

import numpy as np
import pytest

from repro.apps import (
    CONTROL,
    LOCALIZATION,
    PLANNING,
    all_applications,
    auto_vehicle,
    manipulator,
    mobile_robot,
    quadrotor,
)
from repro.apps import builders
from repro.errors import GraphError
from repro.factorgraph import U, V, X
from repro.geometry import Pose


class TestTable4Dimensions:
    """Variable dimensions must match the paper's Tbl. 4 exactly."""

    def loc_pose_dim(self, app):
        graphs = app.build_graphs(seed=0, algorithms=[LOCALIZATION])
        _, values = graphs[LOCALIZATION]
        return values.dim(X(0))

    def planning_state_dim(self, app):
        graphs = app.build_graphs(seed=0, algorithms=[PLANNING])
        _, values = graphs[PLANNING]
        return values.dim(V(0))

    def control_dims(self, app):
        graphs = app.build_graphs(seed=0, algorithms=[CONTROL])
        _, values = graphs[CONTROL]
        return values.dim(X(0)), values.dim(U(0))

    def test_mobile_robot(self):
        app = mobile_robot()
        assert self.loc_pose_dim(app) == 3
        assert self.planning_state_dim(app) == 6
        assert self.control_dims(app) == (3, 2)

    def test_manipulator(self):
        app = manipulator()
        assert self.loc_pose_dim(app) == 2
        assert self.planning_state_dim(app) == 4
        assert self.control_dims(app) == (2, 2)

    def test_auto_vehicle(self):
        app = auto_vehicle()
        assert self.loc_pose_dim(app) == 3
        assert self.planning_state_dim(app) == 6
        assert self.control_dims(app) == (5, 2)

    def test_quadrotor(self):
        app = quadrotor()
        assert self.loc_pose_dim(app) == 6
        assert self.planning_state_dim(app) == 12
        assert self.control_dims(app) == (12, 5)


class TestTable4Factors:
    def factor_types(self, app, algorithm):
        graph, _ = app.build_graphs(seed=0, algorithms=[algorithm])[algorithm]
        return {type(f).__name__ for f in graph}

    def test_mobile_robot_factors(self):
        app = mobile_robot()
        assert "LiDARFactor" in self.factor_types(app, LOCALIZATION)
        assert "GPSFactor" in self.factor_types(app, LOCALIZATION)
        planning = self.factor_types(app, PLANNING)
        assert "CollisionFreeFactor" in planning
        assert "SmoothnessFactor" in planning
        assert "DynamicsFactor" in self.factor_types(app, CONTROL)

    def test_manipulator_prior_only_localization(self):
        app = manipulator()
        assert self.factor_types(app, LOCALIZATION) == {"PriorFactor"}

    def test_auto_vehicle_kinematics(self):
        app = auto_vehicle()
        assert "VelocityLimitFactor" in self.factor_types(app, PLANNING)
        assert "KinematicsFactor" in self.factor_types(app, CONTROL)

    def test_quadrotor_camera_imu(self):
        app = quadrotor()
        loc = self.factor_types(app, LOCALIZATION)
        assert "CameraFactor" in loc
        assert "IMUFactor" in loc


class TestApplicationApi:
    def test_all_applications_in_paper_order(self):
        names = [a.name for a in all_applications()]
        assert names == ["MobileRobot", "Manipulator", "AutoVehicle",
                         "Quadrotor"]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(GraphError):
            mobile_robot().spec("perception")

    def test_builds_are_deterministic(self):
        app = mobile_robot()
        a = app.compile_merged(seed=5)
        b = app.compile_merged(seed=5)
        assert len(a) == len(b)
        assert [i.op for i in a] == [i.op for i in b]

    def test_frame_composition_rates(self):
        app = quadrotor()  # loc 20 Hz, control 100 Hz, planning 2 Hz
        comp = app.frame_composition()
        assert comp[LOCALIZATION] == 1
        assert comp[CONTROL] == 5
        assert comp[PLANNING] == 0
        assert app.planning_period() == 10

    def test_compile_frame_replicates_control(self):
        app = quadrotor()
        prog = app.compile_frame(seed=0)
        tags = {i.algorithm for i in prog}
        control_streams = {t for t in tags if t.startswith("control")}
        assert len(control_streams) == 5

    def test_compile_frame_planning_optional(self):
        app = mobile_robot()
        without = app.compile_frame(seed=0, include_planning=False)
        with_planning = app.compile_frame(seed=0, include_planning=True)
        assert len(with_planning) > len(without)

    def test_compile_frame_times_its_graph_builds(self):
        """A frame's stream graphs are built under one ``frame.build``
        host-phase span, closed before the frame compiles."""
        from repro import obs

        with obs.enabled_scope() as collector:
            collector.drain()
            manipulator().compile_frame(seed=0)
            names = [span.name for span in collector.drain().spans]
        assert names.count("frame.build") == 1
        assert names.index("frame.build") < names.index("compile_application")


class TestBuilders:
    def test_localization_graphs_solve(self):
        rng = np.random.default_rng(0)
        graph, values = builders.lidar_gps_localization(rng, window=6)
        result = graph.optimize(values)
        assert result.converged
        assert result.final_error < result.initial_error or (
            result.initial_error == 0.0
        )

    def test_vio_graph_solves(self):
        rng = np.random.default_rng(1)
        graph, values = builders.visual_inertial_localization(
            rng, keyframes=5, num_landmarks=4)
        result = graph.optimize(values)
        assert result.converged

    def test_models_have_documented_shapes(self):
        a, b = builders.unicycle_model()
        assert a.shape == (3, 3) and b.shape == (3, 2)
        a, b = builders.two_link_arm_model()
        assert a.shape == (2, 2) and b.shape == (2, 2)
        a, b = builders.bicycle_model()
        assert a.shape == (5, 5) and b.shape == (5, 2)
        a, b = builders.quadrotor_model()
        assert a.shape == (12, 12) and b.shape == (12, 5)

    def test_lqr_reference_is_trackable(self):
        rng = np.random.default_rng(2)
        a, b = builders.unicycle_model()
        graph, values = builders.lqr_control(rng, a, b, horizon=8)
        result = graph.optimize(values)
        assert result.converged
        assert result.final_error < 1.0
