#include "segmentation/tracker.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace ae::seg {

double Track::mean_scene_speed() const {
  if (observations.size() < 2) return 0.0;
  // Scene-relative displacement is stored via camera-compensated
  // centroids captured at match time in the observation order.
  double total = 0.0;
  for (std::size_t i = 1; i < observations.size(); ++i) {
    const Observation& a = observations[i - 1];
    const Observation& b = observations[i];
    total += std::hypot(b.scene_x - a.scene_x, b.scene_y - a.scene_y) /
             std::max(1, b.frame - a.frame);
  }
  return total / static_cast<double>(observations.size() - 1);
}

ObjectTracker::ObjectTracker(alib::Backend& backend, TrackerParams params)
    : backend_(&backend), params_(params) {
  AE_EXPECTS(params_.max_match_distance > 0.0,
             "match distance must be positive");
  AE_EXPECTS(params_.max_size_ratio >= 1.0, "size ratio bound >= 1");
}

std::vector<ObjectTracker::Region> ObjectTracker::extract_regions(
    const SegmentationResult& seg) const {
  // Per-region statistics from the label map (segment-indexed pass).
  struct Acc {
    i64 n = 0;
    double sx = 0.0, sy = 0.0, sum_y = 0.0;
    Rect bbox{};
  };
  std::map<alib::SegmentId, Acc> table;
  for (i32 y = 0; y < seg.labels.height(); ++y)
    for (i32 x = 0; x < seg.labels.width(); ++x) {
      const u16 id = seg.labels.ref(x, y).alfa;
      if (id == 0) continue;
      Acc& acc = table[id];
      ++acc.n;
      acc.sx += x;
      acc.sy += y;
      acc.sum_y += seg.labels.ref(x, y).y;
      acc.bbox = acc.bbox.unite(Rect{x, y, 1, 1});
    }

  std::vector<Region> regions;
  for (const auto& [id, acc] : table) {
    if (acc.n < params_.min_object_pixels) continue;
    Region r;
    r.observation.frame = frame_index_;
    r.observation.segment = id;
    r.observation.bbox = acc.bbox;
    r.observation.pixels = acc.n;
    r.observation.centroid_x = acc.sx / static_cast<double>(acc.n);
    r.observation.centroid_y = acc.sy / static_cast<double>(acc.n);
    r.observation.mean_y = acc.sum_y / static_cast<double>(acc.n);
    r.scene_x = r.observation.centroid_x + camera_accum_.dx;
    r.scene_y = r.observation.centroid_y + camera_accum_.dy;
    r.observation.scene_x = r.scene_x;
    r.observation.scene_y = r.scene_y;
    regions.push_back(r);
  }
  return regions;
}

int ObjectTracker::feed(const img::Image& frame) {
  // 1. Segment the frame through the AddressLib.
  const SegmentationResult seg =
      segment_image(*backend_, frame, params_.segmentation);
  addresslib_calls_ += seg.addresslib_calls;

  // 2. Camera motion vs. the previous frame (AddressLib GME calls).
  gme::Pyramid pyramid =
      gme::build_pyramid(*backend_, frame, params_.gme.pyramid_levels);
  addresslib_calls_ += pyramid.level_count() - 1;
  if (prev_pyramid_.has_value()) {
    gme::GmeEstimator estimator(*backend_, params_.gme);
    const gme::GmeResult motion =
        estimator.estimate(*prev_pyramid_, pyramid);
    // The estimate m is the frame-space displacement of static scene
    // content (cur(x + m) == prev(x)); the camera therefore moved by -m,
    // and scene = frame + camera cancels the shift (see gme/mosaic.cpp).
    camera_accum_ = camera_accum_ - motion.motion;
    addresslib_calls_ += motion.calls;
  }
  prev_pyramid_ = std::move(pyramid);

  // 3. Match regions to active tracks on camera-compensated position.
  std::vector<Region> regions = extract_regions(seg);
  struct Candidate {
    double distance;
    std::size_t track_slot;  // index into active_
    std::size_t region;
  };
  std::vector<Candidate> candidates;
  for (std::size_t t = 0; t < active_.size(); ++t) {
    const Track& track = tracks_[static_cast<std::size_t>(active_[t])];
    const Observation& last = track.observations.back();
    for (std::size_t r = 0; r < regions.size(); ++r) {
      const double ratio =
          static_cast<double>(std::max(last.pixels, regions[r].observation.pixels)) /
          static_cast<double>(std::min(last.pixels, regions[r].observation.pixels));
      if (ratio > params_.max_size_ratio) continue;
      const double d = std::hypot(regions[r].scene_x - scene_x_[t],
                                  regions[r].scene_y - scene_y_[t]);
      if (d > params_.max_match_distance) continue;
      candidates.push_back({d, t, r});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.region < b.region;
            });

  std::vector<bool> track_used(active_.size(), false);
  std::vector<bool> region_used(regions.size(), false);
  std::vector<int> next_active;
  std::vector<double> next_sx;
  std::vector<double> next_sy;
  for (const Candidate& c : candidates) {
    if (track_used[c.track_slot] || region_used[c.region]) continue;
    track_used[c.track_slot] = true;
    region_used[c.region] = true;
    Track& track = tracks_[static_cast<std::size_t>(active_[c.track_slot])];
    track.observations.push_back(regions[c.region].observation);
    next_active.push_back(active_[c.track_slot]);
    next_sx.push_back(regions[c.region].scene_x);
    next_sy.push_back(regions[c.region].scene_y);
  }
  for (std::size_t r = 0; r < regions.size(); ++r) {
    if (region_used[r]) continue;
    Track track;
    track.id = static_cast<int>(tracks_.size()) + 1;
    track.observations.push_back(regions[r].observation);
    tracks_.push_back(std::move(track));
    next_active.push_back(static_cast<int>(tracks_.size()) - 1);
    next_sx.push_back(regions[r].scene_x);
    next_sy.push_back(regions[r].scene_y);
  }
  active_ = std::move(next_active);
  scene_x_ = std::move(next_sx);
  scene_y_ = std::move(next_sy);

  ++frame_index_;
  return static_cast<int>(active_.size());
}

std::vector<const Track*> ObjectTracker::active_tracks() const {
  std::vector<const Track*> out;
  out.reserve(active_.size());
  for (const int t : active_)
    out.push_back(&tracks_[static_cast<std::size_t>(t)]);
  return out;
}

}  // namespace ae::seg
