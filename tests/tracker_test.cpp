// Temporal object tracking tests: moving objects against static and
// moving cameras, track identity and camera-motion compensation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "image/synth.hpp"
#include "profiling/profiler.hpp"
#include "segmentation/tracker.hpp"

namespace ae::seg {
namespace {

/// A scene frame: flat background, one bright disk at `disk`, optionally a
/// second dark square, the whole view shifted by `camera` pixels.
img::Image scene(Point disk, Point camera, bool second_object = false) {
  img::Image f(Size{96, 64});
  // Scene-anchored texture with structure at every pyramid scale (like
  // real footage — and like the Table 3 stand-ins): a fine-only texture
  // would vanish at the coarse levels and let the GME lock onto the
  // moving object instead of the background.
  for (i32 y = 0; y < f.height(); ++y)
    for (i32 x = 0; x < f.width(); ++x) {
      const double wx = x + camera.x;
      const double wy = y + camera.y;
      const double coarse = img::value_noise(wx, wy, 29, 2, 80.0);
      const double fine = img::value_noise(wx, wy, 17, 3, 14.0);
      f.ref(x, y) = img::Pixel::gray(img::clamp_u8(static_cast<i32>(
          40 + 120 * coarse + 50 * fine)));
    }
  img::draw_disk(f, disk - camera, 8, img::Pixel::gray(220));
  if (second_object)
    img::draw_rect(f, Rect{70 - camera.x, 44 - camera.y, 14, 12},
                   img::Pixel::gray(20));
  return f;
}

TrackerParams easy_params() {
  TrackerParams p;
  p.segmentation.luma_threshold = 14;
  p.segmentation.min_segment_pixels = 40;
  p.min_object_pixels = 60;
  p.gme.robust_passes = 1;
  return p;
}

const Track* find_track_of_size(const ObjectTracker& tracker, i64 min_px,
                                i64 max_px) {
  for (const Track& t : tracker.tracks()) {
    const i64 px = t.observations.front().pixels;
    if (px >= min_px && px <= max_px) return &t;
  }
  return nullptr;
}

TEST(Tracker, FollowsAMovingObjectStaticCamera) {
  alib::SoftwareBackend be;
  ObjectTracker tracker(be, easy_params());
  for (int t = 0; t < 5; ++t)
    tracker.feed(scene({24 + 6 * t, 30}, {0, 0}));
  // One track is the disk (~200 px): present in all 5 frames, moving.
  const Track* disk = find_track_of_size(tracker, 120, 350);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->length(), 5);
  EXPECT_NEAR(disk->mean_scene_speed(), 6.0, 1.0);
  // Scene content is static: other long tracks move far slower than the
  // disk.  (Their centroids still jitter a little: the disk carves through
  // neighboring segments and per-frame re-segmentation reshapes them.)
  int static_tracks = 0;
  for (const Track& track : tracker.tracks()) {
    if (track.id == disk->id || track.length() < 4) continue;
    EXPECT_LT(track.mean_scene_speed(), disk->mean_scene_speed() / 1.7)
        << "track " << track.id;
    ++static_tracks;
  }
  EXPECT_GE(static_tracks, 1);
  EXPECT_NEAR(tracker.camera_motion().magnitude(), 0.0, 1.5);
}

TEST(Tracker, CompensatesCameraMotion) {
  // The object is static in the scene while the camera pans: without
  // compensation its frame position moves 5 px/frame; the tracker must
  // report it (nearly) static.
  alib::SoftwareBackend be;
  ObjectTracker tracker(be, easy_params());
  for (int t = 0; t < 5; ++t)
    tracker.feed(scene({48, 30}, {5 * t, 0}));
  const Track* disk = find_track_of_size(tracker, 120, 350);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->length(), 5);
  EXPECT_LT(disk->mean_scene_speed(), 1.2);
  EXPECT_NEAR(tracker.camera_motion().magnitude(), 4.0 * 5.0, 3.0);
}

TEST(Tracker, KeepsTwoObjectsApart) {
  alib::SoftwareBackend be;
  ObjectTracker tracker(be, easy_params());
  for (int t = 0; t < 4; ++t)
    tracker.feed(scene({20 + 4 * t, 20}, {0, 0}, true));
  // Disk (~200 px) and square (~168 px) stay separate tracks.
  int full_length_small_tracks = 0;
  for (const Track& track : tracker.tracks())
    if (track.length() == 4 && track.observations.front().pixels < 1000)
      ++full_length_small_tracks;
  EXPECT_GE(full_length_small_tracks, 2);
}

TEST(Tracker, ObjectLeavingEndsItsTrack) {
  alib::SoftwareBackend be;
  TrackerParams params = easy_params();
  params.max_match_distance = 10.0;
  ObjectTracker tracker(be, params);
  // Disk marches off the right edge.
  for (int t = 0; t < 6; ++t)
    tracker.feed(scene({70 + 8 * t, 30}, {0, 0}));
  const Track* disk = find_track_of_size(tracker, 100, 350);
  ASSERT_NE(disk, nullptr);
  EXPECT_LT(disk->last_frame(), 5);  // gone before the end
  // It is no longer among the active tracks.
  for (const Track* active : tracker.active_tracks())
    EXPECT_NE(active->id, disk->id);
}

TEST(Tracker, CountsAddressLibWork) {
  alib::SoftwareBackend be;
  ObjectTracker tracker(be, easy_params());
  tracker.feed(scene({30, 30}, {0, 0}));
  const i64 one_frame = tracker.addresslib_calls();
  EXPECT_GT(one_frame, 3);
  tracker.feed(scene({34, 30}, {0, 0}));
  EXPECT_GT(tracker.addresslib_calls(), one_frame + 4);  // + GME calls

  // The count is exact: it equals what a recorder around the backend sees,
  // with and without the estimator's level smoothing, on one and two
  // pyramid levels.
  for (const bool smooth : {false, true})
    for (const int levels : {1, 2}) {
      SCOPED_TRACE(std::string(smooth ? "smoothed" : "raw") + " levels " +
                   std::to_string(levels));
      alib::SoftwareBackend sw;
      prof::CallRecorder recorder(sw);
      TrackerParams p = easy_params();
      p.gme.smooth_levels = smooth;
      p.gme.pyramid_levels = levels;
      ObjectTracker counted(recorder, p);
      for (int t = 0; t < 3; ++t)
        counted.feed(scene({30 + 4 * t, 30}, {2 * t, 0}));
      EXPECT_EQ(counted.addresslib_calls(), recorder.calls());
    }
}

TEST(Tracker, ParamsValidated) {
  alib::SoftwareBackend be;
  TrackerParams bad;
  bad.max_match_distance = 0.0;
  EXPECT_THROW(ObjectTracker(be, bad), InvalidArgument);
}

}  // namespace
}  // namespace ae::seg
